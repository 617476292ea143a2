"""Command line front end.

    dsn-adapt <mode> --config <path> [--out <dir>] [--seed N] [--n-h N]
              [--alpha X] [--beta X] [--gamma X]

Modes: pretrain, adapt_grl, adapt_dsn, evaluate, sweep. Each flag sets the
config key it names (`--n-h` sets `n_h`; `--seed` also sets `synth.seed`) over
the file's value; see config.py for the key scheme.

Success exits 0. A bad input exits 1 (`config error: `), 2 (`data error: `)
or 3 (`training diverged: `) with one stderr line, that prefix and a message
naming the file (and line) or the key at fault, and leaves --out as it found it.
An --out that cannot take the mode's files, or a config file that cannot be
read or is not UTF-8, is a config error too; such a model or corpus file is a
data error.

`sweep` writes `sweep.csv`, one line per model under the header
`seed,method,n_h,alpha,source_error,target_error`: the pretrained net (method
`pretrain`, n_h and alpha empty), then `adapt_grl` and `adapt_dsn` at each
(sweep.n_h, sweep.alpha) cell, scored by frame error rate on source_test and
target_test. A run that diverges gets nan errors; the sweep goes on and exits 0.

A `data_dir` gains hidden `.<file>.labeled.npz` and `.<file>.unlabeled.npz`
sidecars: each corpus file's parsed frames, which later runs load instead of
parsing the file again while its bytes are unchanged (see data.py).
"""

from __future__ import annotations

import argparse
import errno
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .config import MODES, ExperimentConfig, load_config
from .dsn import adapted_model, load_dsn_model, save_dsn_model
from .errors import ConfigError, DataError, TrainingDivergedError
from .nn import Activation, Mlp, load_mlp, read_lines, save_mlp
from .pipeline import (
    ADAPTERS,
    DATA_FILES,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one config-error line, not argparse's usage block and exit 2
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dsn-adapt", description=__doc__)
    parser.add_argument("mode")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="out")
    for key in _FLAG_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key)
    return parser


def _load_eval_nets(cfg: ExperimentConfig) -> tuple[Mlp, ...]:
    if cfg.model_path is None:
        raise ConfigError("evaluate mode needs 'model_path = <path>' in the config")
    lines = read_lines(cfg.model_path)
    if lines and lines[0].strip() == "dsn-model v1":
        return adapted_model(load_dsn_model(cfg.model_path, lines))
    return (load_mlp(cfg.model_path, lines),)


def _run_mode(mode: str, cfg: ExperimentConfig, out_dir: Path) -> None:
    """Check every input before making the output directory, so a rejected
    input leaves nothing behind; a run that fails later removes what it made."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    names = {"sweep": ("sweep.csv",), "evaluate": ("report.csv",)}.get(mode, ("model.dsn", "trace.csv", "report.csv"))
    out_dir = Path(os.path.realpath(out_dir))  # unresolved, x/../y with x missing makes y outside made = x
    if taken := next((name for name in names if (out_dir / name).is_dir()), None):
        raise ConfigError(f"--out {out_dir}: cannot write {taken}: {os.strerror(errno.EISDIR)}")
    if mode == "evaluate":
        nets, model_file = _load_eval_nets(cfg), cfg.model_path
    elif mode in ADAPTERS or (mode == "sweep" and cfg.pretrained_model is not None):
        if cfg.pretrained_model is None:
            raise ConfigError("this mode needs 'pretrained_model = <path>' in the config")
        nets, model_file = (load_mlp(cfg.pretrained_model),), cfg.pretrained_model
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
    if mode in ADAPTERS or mode == "sweep":  # n_h splits the pretrained net, or the one built here
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
    made = next((p for p in (*reversed(out_dir.parents), out_dir) if not p.exists()), None)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot make the output directory: {exc.strerror}") from None
    try:
        if mode == "sweep":
            source_dnn = nets[0] if nets is not None else pretrain_source(cfg, prepared.source_train)[0]
            writes = [(write_sweep_csv, sweep(cfg, source_dnn, prepared)[0])]
        elif mode == "evaluate":
            report = RunReport("evaluate", [], {})
        elif mode == "pretrain":
            model, report = pretrain_source(cfg, prepared.source_train)
            nets = (model,)
        else:
            model, report = ADAPTERS[mode](cfg, nets[0], prepared.source_train, prepared.target_adapt)
            nets = adapted_model(model)
        if mode != "sweep":
            # a training mode loads no target labels, so it is scored on source_test only
            for name in ("source_test", "target_test") if mode == "evaluate" else ("source_test",):
                report.evals[name] = evaluate(nets, getattr(prepared, name))
            writes = [(write_report_csv, report)]
            if mode != "evaluate":
                save = save_mlp if mode == "pretrain" else save_dsn_model
                writes = [(save, model), (write_trace_csv, report.trace), *writes]
        for name, (write, value) in zip(names, writes):
            try:
                write(value, out_dir / name)
            except OSError as exc:
                raise ConfigError(f"--out {out_dir}: cannot write {name}: {exc.strerror or exc}") from None
    except BaseException:  # a failed run leaves --out as it found it
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = {key: getattr(args, key) for key in _FLAG_KEYS if getattr(args, key) is not None}
        if "seed" in overrides:
            overrides["synth.seed"] = overrides["seed"]  # the data follows the master seed
        cfg = load_config(args.config, overrides)
        # an overflow or nan is reported by the program's own checks, in its one message
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _run_mode(args.mode, cfg, Path(args.out))
    except SystemExit:  # --help, once printed
        return 0
    except (ConfigError, DataError, TrainingDivergedError) as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
