"""Experiment configuration: plain-text `key = value` files plus CLI overrides.

The dataclass fields below are the only declaration of keys, types and
defaults. A key is `section.field` for the nested synth/splice/net sections
and the bare field name otherwise; the sweep grid, whose every (n_h, alpha)
cell the `sweep` mode adapts with both methods, is spelled `sweep.n_h` and
`sweep.alpha`. A value parses as the type of its field's default: tuples are
comma-separated lists, and a None default means a path string.

A number must be finite and >= its key's bound: 1 for a count (synth sizes,
net widths, n_h, batch, sweep.n_h), 0 for epochs, splice.* and every real but
synth.channel_matrix_scale (no bound); a seed is any integer. A list needs one
value or more, each in bounds. Rejections name the key as the file spells it:
`<key> must be finite and >= <low>, got <value>`, `<key> needs at least one value`.

Lines starting with `#` (or inline `#` tails) are comments. Every key has a
toy-profile default, so an empty file is a valid config; unknown or duplicate
keys are rejected before any compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .data import SynthConfig
from .errors import ConfigError
from .nn import _check_at_least, read_lines

MODES = ("pretrain", "adapt_grl", "adapt_dsn", "evaluate", "sweep")

# Key spelling of the sweep-grid fields; the field names themselves are not keys.
_ALIASES = {"sweep_n_h": "sweep.n_h", "sweep_alpha": "sweep.alpha"}


def _check_range(key: str, value: float | tuple[float, ...], low: float) -> None:
    if isinstance(value, tuple) and not value:
        raise ConfigError(f"{key} needs at least one value")
    for entry in value if isinstance(value, tuple) else (value,):
        _check_at_least(key, entry, low)


@dataclass(frozen=True)
class SpliceConfig:
    left: int = 2
    right: int = 2

    def __post_init__(self):
        for name in ("left", "right"):
            _check_at_least(f"splice.{name}", getattr(self, name), 0)


@dataclass(frozen=True)
class NetConfig:
    """Hidden-layer widths; output dims are derived from the data and the
    shared component dim."""

    source_hidden: tuple[int, ...] = (48, 48, 48)
    domain_hidden: tuple[int, ...] = (32, 32)
    private_hidden: tuple[int, ...] = (32, 32)
    recon_hidden: tuple[int, ...] = (32,)

    def __post_init__(self):
        for name in ("source_hidden", "domain_hidden", "private_hidden", "recon_hidden"):
            _check_range(f"net.{name}", getattr(self, name), 1)


@dataclass(frozen=True)
class ExperimentConfig:
    synth: SynthConfig = field(
        default_factory=lambda: SynthConfig(
            num_classes=10,
            base_dim=8,
            utterances_per_domain=100,
            frames_per_utterance=100,
            class_separation=3.0,
            channel_matrix_scale=0.3,
            noise_std=1.0,
            seed=1,
        )
    )
    splice: SpliceConfig = field(default_factory=SpliceConfig)
    net: NetConfig = field(default_factory=NetConfig)
    n_h: int = 2
    alpha: float = 1.0
    beta: float = 0.25
    gamma: float = 0.25
    mu: float = 1.0
    epochs: int = 30
    batch: int = 128
    seed: int = 1
    data_dir: str | None = None
    pretrained_model: str | None = None
    model_path: str | None = None
    sweep_n_h: tuple[int, ...] = (1, 2, 3)
    sweep_alpha: tuple[float, ...] = (1.0, 4.0, 8.0)

    def __post_init__(self):
        # n_h's upper bound is the depth of the net being split, checked by the mode
        for name, low in (("n_h", 1), ("alpha", 0), ("beta", 0), ("gamma", 0), ("mu", 0), ("epochs", 0), ("batch", 1),
                          ("sweep_n_h", 1), ("sweep_alpha", 0)):
            _check_range(_ALIASES.get(name, name), getattr(self, name), low)


def _convert(key: str, raw: str, default: object) -> object:
    """Parse raw as the type of the field's default: None means a path
    string, a tuple a comma-separated list of its element type."""
    if default is None:
        if not raw:
            raise ConfigError(f"{key}: a path cannot be empty, got {raw!r}")
        if "\0" in raw:
            raise ConfigError(f"{key}: a path cannot hold a NUL byte, got {raw!r}")
        return raw
    if isinstance(default, tuple):
        return tuple(_convert(key, part.strip(), default[0]) for part in raw.split(",") if part.strip())
    try:
        return type(default)(raw)
    except ValueError:
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError(f"{source}: line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key!r}")
        values[key] = raw
    return values


def build_config(values: dict[str, str]) -> ExperimentConfig:
    base = ExperimentConfig()
    keys: dict[str, tuple[str | None, str, object]] = {}  # key -> (section, field, default)
    for f in fields(base):
        value = getattr(base, f.name)
        if is_dataclass(value):
            for g in fields(value):
                keys[f"{f.name}.{g.name}"] = (f.name, g.name, getattr(value, g.name))
        else:
            keys[_ALIASES.get(f.name, f.name)] = (None, f.name, value)
    top: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {}
    for key, raw in values.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
        section, name, default = keys[key]
        target = top if section is None else sections.setdefault(section, {})
        target[name] = _convert(key, raw, default)
    for section, updates in sections.items():
        top[section] = replace(getattr(base, section), **updates)
    return ExperimentConfig(**top)


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read a config file. `overrides` (CLI flag values, keyed like the
    file) beat the file's values; the merged keys are validated once."""
    values = parse_config_text("\n".join(read_lines(path, ConfigError)), source=str(path))
    return build_config({**values, **(overrides or {})})
