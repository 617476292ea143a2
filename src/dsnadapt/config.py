"""Experiment configuration: plain-text `key = value` files plus CLI overrides.

Lines starting with `#` (or inline `#` tails) are comments. Every key has a
toy-profile default, so an empty file is a valid config; unknown or duplicate
keys are rejected before any compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .data import SynthConfig
from .errors import ConfigError

MODES = ("pretrain", "adapt_grl", "adapt_dsn", "evaluate", "sweep")


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
    mu: float = 0.2
    epochs: int = 30
    batch: int = 128
    seed: int = 1
    data_dir: str | None = None
    pretrained_model: str | None = None
    model_path: str | None = None
    sweep_n_h: tuple[int, ...] = (1, 2, 3)
    sweep_alpha: tuple[float, ...] = (1.0, 4.0, 8.0)

    def __post_init__(self):
        if self.n_h < 1:
            raise ConfigError("n_h must be >= 1")
        if self.n_h > len(self.net.source_hidden):
            raise ConfigError(
                f"n_h={self.n_h} exceeds the {len(self.net.source_hidden)} hidden layers"
            )
        for name in ("alpha", "beta", "gamma", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.mu < 0:
            raise ConfigError("mu must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if not self.sweep_n_h or not self.sweep_alpha:
            raise ConfigError("sweep lists must be non-empty")


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _to_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _to_int_list(key: str, raw: str) -> tuple[int, ...]:
    return tuple(_to_int(key, part.strip()) for part in raw.split(",") if part.strip())


def _to_float_list(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_to_float(key, part.strip()) for part in raw.split(",") if part.strip())


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
    synth_kwargs = {
        "num_classes": base.synth.num_classes,
        "base_dim": base.synth.base_dim,
        "utterances_per_domain": base.synth.utterances_per_domain,
        "frames_per_utterance": base.synth.frames_per_utterance,
        "class_separation": base.synth.class_separation,
        "channel_matrix_scale": base.synth.channel_matrix_scale,
        "noise_std": base.synth.noise_std,
        "seed": base.synth.seed,
    }
    splice_kwargs = {"left": base.splice.left, "right": base.splice.right}
    net_kwargs = {
        "source_hidden": base.net.source_hidden,
        "domain_hidden": base.net.domain_hidden,
        "private_hidden": base.net.private_hidden,
        "recon_hidden": base.net.recon_hidden,
    }
    top: dict[str, object] = {}
    synth_ints = {"num_classes", "base_dim", "utterances_per_domain", "frames_per_utterance", "seed"}
    for key, raw in values.items():
        if key.startswith("synth."):
            name = key[len("synth."):]
            if name not in synth_kwargs:
                raise ConfigError(f"unknown config key {key!r}")
            synth_kwargs[name] = _to_int(key, raw) if name in synth_ints else _to_float(key, raw)
        elif key.startswith("splice."):
            name = key[len("splice."):]
            if name not in splice_kwargs:
                raise ConfigError(f"unknown config key {key!r}")
            splice_kwargs[name] = _to_int(key, raw)
        elif key.startswith("net."):
            name = key[len("net."):]
            if name not in net_kwargs:
                raise ConfigError(f"unknown config key {key!r}")
            net_kwargs[name] = _to_int_list(key, raw)
        elif key == "sweep.n_h":
            top["sweep_n_h"] = _to_int_list(key, raw)
        elif key == "sweep.alpha":
            top["sweep_alpha"] = _to_float_list(key, raw)
        elif key in ("n_h", "epochs", "batch", "seed"):
            top[key] = _to_int(key, raw)
        elif key in ("alpha", "beta", "gamma", "mu"):
            top[key] = _to_float(key, raw)
        elif key in ("data_dir", "pretrained_model", "model_path"):
            top[key] = raw
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(
        synth=SynthConfig(**synth_kwargs),
        splice=SpliceConfig(**splice_kwargs),
        net=NetConfig(**net_kwargs),
        **top,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return build_config(parse_config_text(path.read_text(), source=str(path)))


def apply_overrides(
    cfg: ExperimentConfig,
    seed: int | None = None,
    n_h: int | None = None,
    alpha: float | None = None,
    beta: float | None = None,
    gamma: float | None = None,
) -> ExperimentConfig:
    """CLI flags beat config-file values; the synth seed follows --seed."""
    updates: dict[str, object] = {}
    if seed is not None:
        updates["seed"] = seed
        updates["synth"] = replace(cfg.synth, seed=seed)
    if n_h is not None:
        updates["n_h"] = n_h
    if alpha is not None:
        updates["alpha"] = alpha
    if beta is not None:
        updates["beta"] = beta
    if gamma is not None:
        updates["gamma"] = gamma
    return replace(cfg, **updates) if updates else cfg
