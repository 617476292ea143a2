"""Experiment configuration: plain-text `key = value` files plus CLI overrides.

The dataclass fields below are the only declaration of keys, types and
defaults. A key is `section.field` for the nested synth/splice/net sections
and the bare field name otherwise; the sweep grid is spelled `sweep.n_h` and
`sweep.alpha`. A value parses as the type of its field's default: tuples are
comma-separated lists, and a None default means a path string.

Lines starting with `#` (or inline `#` tails) are comments. Every key has a
toy-profile default, so an empty file is a valid config; unknown or duplicate
keys are rejected before any compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .data import SynthConfig
from .errors import ConfigError

MODES = ("pretrain", "adapt_grl", "adapt_dsn", "evaluate", "sweep")

# Key spelling of the sweep-grid fields; the field names themselves are not keys.
_ALIASES = {"sweep_n_h": "sweep.n_h", "sweep_alpha": "sweep.alpha"}


@dataclass(frozen=True)
class SpliceConfig:
    left: int = 2
    right: int = 2

    def __post_init__(self):
        if self.left < 0 or self.right < 0:
            raise ConfigError("splice context must be >= 0")


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
            widths = getattr(self, name)
            if not widths or any(w < 1 for w in widths):
                raise ConfigError(f"{name} needs at least one positive width")


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
        # the upper bound is the depth of the net being split, checked by the mode
        if self.n_h < 1:
            raise ConfigError(f"n_h must be >= 1, got {self.n_h}")
        if any(n < 1 for n in self.sweep_n_h):
            raise ConfigError(f"sweep.n_h entries must be >= 1, got {self.sweep_n_h}")
        coefficients = [(name, getattr(self, name)) for name in ("alpha", "beta", "gamma", "mu")]
        for name, value in coefficients + [("sweep.alpha", a) for a in self.sweep_alpha]:
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if not self.sweep_n_h or not self.sweep_alpha:
            raise ConfigError("sweep lists must be non-empty")


def _convert(key: str, raw: str, default: object) -> object:
    """Parse raw as the type of the field's default: None means a path
    string, a tuple a comma-separated list of its element type."""
    if default is None:
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
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    values = parse_config_text(text, source=str(path))
    return build_config({**values, **(overrides or {})})
