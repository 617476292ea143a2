"""Command line front end.

    dsn-adapt <mode> --config <path> [--out <dir>] [--seed N] [--n-h N]
              [--alpha X] [--beta X] [--gamma X]

Modes: pretrain, adapt_grl, adapt_dsn, evaluate, sweep. Each flag sets the
config key it names (`--n-h` sets `n_h`; `--seed` also sets `synth.seed`) over
the file's value; see config.py for the key scheme. Exit codes: 0 success,
1 config error, 2 data error, 3 training divergence.

A `data_dir` gains hidden `.<file>.labeled.npz` and `.<file>.unlabeled.npz`
sidecars: each corpus file's parsed frames, which later runs load instead of
parsing the file again while its bytes are unchanged (see data.py).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import MODES, ExperimentConfig, load_config
from .dsn import adapted_model, load_dsn_model, save_dsn_model
from .errors import ConfigError, DataError, TrainingDivergedError
from .nn import Activation, Mlp, load_mlp, read_lines, save_mlp
from .pipeline import (
    DATA_FILES,
    adapt_dsn,
    adapt_grl,
    evaluate,
    prepare_corpora,
    pretrain_source,
    sweep,
    write_report_csv,
    write_sweep_csv,
    write_trace_csv,
    RunReport,
)

_FLAG_KEYS = ("seed", "n_h", "alpha", "beta", "gamma")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dsn-adapt", description=__doc__)
    parser.add_argument("mode")
    parser.add_argument("--config", required=False)
    parser.add_argument("--out", default="out")
    for key in _FLAG_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key)
    return parser


def _load_pretrained(cfg: ExperimentConfig) -> Mlp:
    if cfg.pretrained_model is None:
        raise ConfigError("this mode needs 'pretrained_model = <path>' in the config")
    return load_mlp(cfg.pretrained_model)


def _load_eval_nets(cfg: ExperimentConfig) -> tuple[Mlp, ...]:
    if cfg.model_path is None:
        raise ConfigError("evaluate mode needs 'model_path = <path>' in the config")
    lines = read_lines(cfg.model_path)
    if lines and lines[0].strip() == "dsn-model v1":
        return adapted_model(load_dsn_model(cfg.model_path, lines))
    return (load_mlp(cfg.model_path, lines),)


def _run_mode(mode: str, cfg: ExperimentConfig, out_dir: Path) -> None:
    """Load and check the config, the model and the corpora, then make the
    output directory, so a rejected input leaves nothing behind."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    if mode == "evaluate":
        nets, model_file = _load_eval_nets(cfg), cfg.model_path
    elif mode in ("adapt_grl", "adapt_dsn") or (mode == "sweep" and cfg.pretrained_model is not None):
        nets, model_file = (_load_pretrained(cfg),), cfg.pretrained_model
    else:
        nets = model_file = None
    prepared = prepare_corpora(cfg, need_target_labels=mode in ("evaluate", "sweep"))
    if nets is not None:
        if nets[0].in_dim != prepared.source_train.dim:
            raise DataError(f"{model_file}: the model takes {nets[0].in_dim} input features, "
                            f"the spliced corpora have {prepared.source_train.dim}")
        last = nets[-1].layers[-1].activation
        if mode != "evaluate" and last is not Activation.SOFTMAX:
            raise DataError(f"{model_file}: the model's last layer is {last.value}, not softmax")
    if mode in ("adapt_grl", "adapt_dsn", "sweep"):  # n_h splits the pretrained net, or the one built here
        key, n_h = ("sweep.n_h", max(cfg.sweep_n_h)) if mode == "sweep" else ("n_h", cfg.n_h)
        hidden, net_name = ((len(cfg.net.source_hidden), "net.source_hidden") if nets is None
                            else (len(nets[0].layers) - 1, model_file))
        if n_h > hidden:
            raise ConfigError(f"{key} {n_h} exceeds the {hidden} hidden layers of {net_name}")
    labeled = {name: getattr(prepared, name) for name in ("source_train", "source_test", "target_test")}
    top, name = max((int(c.labels.max()), name) for name, c in labeled.items() if c is not None)
    if nets is not None and top >= nets[-1].out_dim:
        raise DataError(f"{model_file}: the model has {nets[-1].out_dim} classes, "
                        f"the corpora have label {top}")
    if nets is None and top >= cfg.synth.num_classes:  # the new net gets synth.num_classes outputs
        raise DataError(f"{Path(cfg.data_dir or '.') / DATA_FILES[name]}: label {top}, "
                        f"but synth.num_classes is {cfg.synth.num_classes}")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot make the output directory: {exc.strerror}") from None
    if mode == "sweep":
        source_dnn = nets[0] if nets is not None else pretrain_source(cfg, prepared.source_train)[0]
        grid = sweep(
            cfg, source_dnn, prepared.source_train, prepared.target_adapt, prepared.target_test
        )
        write_sweep_csv(cfg, grid, out_dir / "sweep.csv")
        return
    if mode == "evaluate":
        report = RunReport("evaluate", [], {})
    elif mode == "pretrain":
        model, report = pretrain_source(cfg, prepared.source_train)
        nets = (model,)
    else:
        runner = adapt_grl if mode == "adapt_grl" else adapt_dsn
        model, report = runner(cfg, nets[0], prepared.source_train, prepared.target_adapt)
        nets = adapted_model(model)
    # a training mode loads no target labels, so it is scored on source_test only
    for name in ("source_test", "target_test") if mode == "evaluate" else ("source_test",):
        report.evals[name] = evaluate(nets, getattr(prepared, name))
    if mode != "evaluate":
        (save_mlp if mode == "pretrain" else save_dsn_model)(model, out_dir / "model.dsn")
        write_trace_csv(report.trace, out_dir / "trace.csv")
    write_report_csv(report, out_dir / "report.csv")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.config is None:
            raise ConfigError("--config is required")
        overrides = {key: getattr(args, key) for key in _FLAG_KEYS if getattr(args, key) is not None}
        if "seed" in overrides:
            overrides["synth.seed"] = overrides["seed"]  # the data follows the master seed
        cfg = load_config(args.config, overrides)
        # an overflow or nan is reported by the program's own checks, in its one message
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _run_mode(args.mode, cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
