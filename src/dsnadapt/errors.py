"""Exception types shared across the package.

The CLI maps these to exit codes: ConfigError -> 1, DataError -> 2,
TrainingDivergedError -> 3; ContractError, a caller's misuse, maps to none.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(ValueError):
    """Malformed data: bad corpus file, out-of-range label, ..."""


class ContractError(RuntimeError):
    """A caller broke a function's contract: a forbidden state or mismatched shapes."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss or gradient."""
