"""Exception types shared across the package. An error the CLI reports carries
its exit `code` and stderr `prefix` as class attributes (cli.py states the
contract); ContractError, a caller's misuse, has neither: it is a traceback."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""
    code, prefix = 1, "config error"


class DataError(ValueError):
    """Malformed data: bad corpus file, out-of-range label, ..."""
    code, prefix = 2, "data error"


class ContractError(RuntimeError):
    """A caller broke a function's contract: a forbidden state or mismatched shapes."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss or gradient."""
    code, prefix = 3, "training diverged"
