"""Command line front end.

    dsn-adapt <mode> --config <path> [--out <dir>] [--seed N] [--n-h N]
              [--alpha X] [--beta X] [--gamma X]

Modes: pretrain, adapt_grl, adapt_dsn, evaluate, sweep. Each flag sets the
config key it names (`--n-h` sets `n_h`; `--seed` also sets `synth.seed`) over
the file's value; see config.py for the key scheme. Exit codes: 0 success,
1 config error, 2 data error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import MODES, ExperimentConfig, load_config
from .dsn import adapted_model, load_dsn_model, save_dsn_model
from .errors import ConfigError, DataError, TrainingDivergedError
from .nn import Mlp, load_mlp, read_lines, save_mlp
from .pipeline import (
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
    path = Path(cfg.model_path)
    if not path.is_file():
        raise ConfigError(f"model file not found: {path}")
    lines = read_lines(path)
    if lines and lines[0].strip() == "dsn-model v1":
        return adapted_model(load_dsn_model(path))
    return (load_mlp(path),)


def _run_mode(mode: str, cfg: ExperimentConfig, out_dir: Path) -> None:
    if mode == "sweep" and max(cfg.sweep_n_h) > len(cfg.net.source_hidden):  # before any compute
        raise ConfigError(f"sweep.n_h {cfg.sweep_n_h} exceeds the hidden layers {cfg.net.source_hidden}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if mode == "pretrain":
        prepared = prepare_corpora(cfg, need_target_labels=False)
        net, report = pretrain_source(cfg, prepared.source_train, prepared.source_test)
        save_mlp(net, out_dir / "model.dsn")
        write_trace_csv(report.trace, out_dir / "trace.csv")
        write_report_csv(report, out_dir / "report.csv")
    elif mode in ("adapt_grl", "adapt_dsn"):
        source_dnn = _load_pretrained(cfg)
        prepared = prepare_corpora(cfg, need_target_labels=False)
        runner = adapt_grl if mode == "adapt_grl" else adapt_dsn
        model, report = runner(
            cfg, source_dnn, prepared.source_train, prepared.target_adapt, prepared.source_test
        )
        save_dsn_model(model, out_dir / "model.dsn")
        write_trace_csv(report.trace, out_dir / "trace.csv")
        write_report_csv(report, out_dir / "report.csv")
    elif mode == "evaluate":
        nets = _load_eval_nets(cfg)
        prepared = prepare_corpora(cfg, need_target_labels=True)
        report = RunReport(
            "evaluate",
            [],
            {
                "source_test": evaluate(nets, prepared.source_test),
                "target_test": evaluate(nets, prepared.target_test),
            },
        )
        write_report_csv(report, out_dir / "report.csv")
    elif mode == "sweep":
        prepared = prepare_corpora(cfg, need_target_labels=True)
        if cfg.pretrained_model is not None:
            source_dnn = _load_pretrained(cfg)
        else:
            source_dnn, _ = pretrain_source(cfg, prepared.source_train)
        result = sweep(
            cfg, source_dnn, prepared.source_train, prepared.target_adapt, prepared.target_test
        )
        write_sweep_csv(result, out_dir / "sweep.csv")
    else:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")


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
