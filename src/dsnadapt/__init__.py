"""Unsupervised frame-level domain adaptation with domain separation networks."""

from .config import ExperimentConfig, load_config
from .data import Corpus, SynthConfig, read_corpus, splice, synth_corpus, write_corpus
from .dsn import (
    DsnBatch,
    DsnModel,
    dsn_gradients,
    dsn_step,
    load_dsn_model,
    save_dsn_model,
)
from .grl import grl_backward
from .nn import Activation, Gradients, Mlp, Rng, forward, init_mlp, load_mlp, save_mlp
from .pipeline import adapt_dsn, adapt_grl, evaluate, pretrain_source, run_trend, sweep

__all__ = [
    "Activation",
    "Corpus",
    "DsnBatch",
    "DsnModel",
    "ExperimentConfig",
    "Gradients",
    "Mlp",
    "Rng",
    "SynthConfig",
    "adapt_dsn",
    "adapt_grl",
    "dsn_gradients",
    "dsn_step",
    "evaluate",
    "forward",
    "grl_backward",
    "init_mlp",
    "load_config",
    "load_dsn_model",
    "load_mlp",
    "pretrain_source",
    "read_corpus",
    "run_trend",
    "save_dsn_model",
    "save_mlp",
    "splice",
    "sweep",
    "synth_corpus",
    "write_corpus",
]
