import errno
import os
import re
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from dsnadapt import cli, data
from dsnadapt.cli import main
from dsnadapt.config import MODES
from dsnadapt.data import SynthConfig, synth_corpus, write_corpus
from dsnadapt.dsn import DsnModel, save_dsn_model
from dsnadapt.nn import Rng, init_mlp, save_mlp
from dsnadapt.pipeline import DATA_FILES
from oracles import poison_dsn_gradient

_KEEP = "not a directory\n"
_TINY = "synth.utterances_per_domain = 4\nsynth.frames_per_utterance = 20\nsynth.base_dim = 3\nepochs = 2\nbatch = 16\n"
_OVERFLOW = "the synth.* profile: feature dim 1 of 8: its mean or variance"


def test_seed_flag_sets_master_and_synth_seed(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 3\nsynth.seed = 4\nn_h = 0\n")  # n_h = 0 is repaired by --n-h
    seen = []
    monkeypatch.setattr(cli, "_run_mode", lambda mode, cfg, out: seen.append(cfg))
    assert main(["pretrain", "--config", str(config), "--seed", "9", "--n-h", "1"]) == 0
    assert (seen[0].seed, seen[0].synth.seed, seen[0].n_h) == (9, 9, 1)


def _shallow_model(tmp_path):
    path = tmp_path / "shallow.mlp"
    save_mlp(init_mlp([(40, 8, "sigmoid"), (8, 10, "softmax")], Rng(1)), path)  # one hidden layer
    return path


def _deep_model(tmp_path, hidden):
    """A model for the _TINY corpora (3 * 5 = 15 spliced columns) with the
    given number of 4-wide hidden layers."""
    path = tmp_path / "deep.mlp"
    save_mlp(init_mlp([(15, 4, "sigmoid")] + [(4, 4, "sigmoid")] * (hidden - 1) + [(4, 10, "softmax")], Rng(1)), path)
    return path


def _source_model(tmp_path):
    path = tmp_path / "source.mlp"
    save_mlp(init_mlp([(15, 6, "sigmoid"), (6, 6, "sigmoid"), (6, 10, "softmax")], Rng(1)), path)
    return path


def _deeper_than(mode, text, key, n_h, model, hidden):
    # the model sets the depth, not net.source_hidden (3 widths by default)
    return mode, f"{text}\npretrained_model = {model}", f"{key} {n_h} exceeds the {hidden} hidden layers of {model}"


def _late_failure(tmp_path, mode, line, fragment):
    # the batch rule belongs to training, so these runs fail after the output directory is made
    return mode, _TINY.replace("batch = 16\n", "") + f"{line}\npretrained_model = {_deep_model(tmp_path, 3)}", fragment


def _bad_model_file(tmp_path, manifest_edit):
    # unedited, an evaluate run over the default synthetic corpora accepts it
    rng = Rng(1)
    model = DsnModel(
        init_mlp([(40, 4, "sigmoid")], rng), init_mlp([(4, 10, "softmax")], rng),
        init_mlp([(4, 2, "softmax")], rng), None, None, None, alpha=1.0, beta=0.0, gamma=0.0,
    )
    path = tmp_path / "model.dsn"
    save_dsn_model(model, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(*manifest_edit)
    path.write_text("\n".join(lines) + "\n")
    return "evaluate", f"model_path = {path}", path.name


def _bad_nets_line(tmp_path, nets):
    mode, line, name = _bad_model_file(tmp_path, ("", ""))  # a valid reversal-only model
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[2] = nets
    path.write_text("\n".join(lines) + "\n")
    return mode, line, f"{name}: line 3:"


def _trailing_line_model(tmp_path):
    mode, line, name = _bad_model_file(tmp_path, ("", ""))  # a valid reversal-only model
    path = tmp_path / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + ["junk"]) + "\n")
    return mode, line, f"{name}: line {len(lines) + 1}: expected a 'layer' line or the end of the file"


def _sigmoid_senone_model(tmp_path):
    mode, line, name = _bad_model_file(tmp_path, ("", ""))  # a valid reversal-only model
    path = tmp_path / name
    lines = path.read_text().splitlines()
    senone = [i for i, text in enumerate(lines, 1) if text == "dsn-mlp v1"][1]  # its block's first line
    assert lines[senone] == "layer 0 4 10 softmax"  # the block's one layer
    lines[senone] = "layer 0 4 10 sigmoid"
    path.write_text("\n".join(lines) + "\n")
    return mode, line, f"{name}: line {senone}: senone: must map 4 -> 10 features and end in softmax"


def _sigmoid_output_model(tmp_path):
    path = tmp_path / "sigmoid.mlp"
    save_mlp(init_mlp([(40, 8, "sigmoid"), (8, 8, "sigmoid"), (8, 10, "sigmoid")], Rng(1)), path)
    return "adapt_grl", f"pretrained_model = {path}", f"{path.name}: the model's last layer is sigmoid, not softmax"


def _narrow_model(tmp_path, mode, key):
    path = tmp_path / "narrow.mlp"
    save_mlp(init_mlp([(7, 3, "softmax")], Rng(1)), path)  # the default corpora have 8 * 5 = 40 columns
    return mode, f"{key} = {path}", f"{path.name}: the model takes 7 input features, the spliced corpora have 40"


def _spliced_data_dir(tmp_path):
    (tmp_path / "source_train.csv").write_text("dsn-corpus v1 dim=1 spliced=1\nu,0,src,0,1.5\n")
    return "pretrain", f"data_dir = {tmp_path}", "source_train.csv: line 1: spliced=1"


_HEADER = "dsn-corpus v1 dim={} spliced=0\n"


def _data_dir(tmp_path, mode, name, **files):
    for stem, text in files.items():
        (tmp_path / f"{stem}.csv").write_text(text)
    line = f"data_dir = {tmp_path}"
    if mode != "pretrain":
        line += f"\npretrained_model = {_shallow_model(tmp_path)}"
    return mode, line, name


def _unreadable_corpus(tmp_path, make, message):
    make(tmp_path / "source_train.csv")
    return "pretrain", f"data_dir = {tmp_path}", f"source_train.csv: {message}"


def _not_utf8(case, line):
    """case's model file with the byte 0xff added to its line `line`."""
    mode, config_line, _ = case
    path = Path(config_line.split(" = ", 1)[1])
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    return mode, config_line, f"{path.name}: line {line}: not UTF-8 text"


def _few_classes_model(tmp_path):
    path = tmp_path / "three.mlp"
    save_mlp(init_mlp([(40, 8, "sigmoid"), (8, 8, "sigmoid"), (8, 3, "softmax")], Rng(1)), path)
    return "adapt_grl", f"pretrained_model = {path}", f"{path.name}: the model has 3 classes, the corpora have label 9"


def _bad_mlp_file(tmp_path, body, line):
    path = tmp_path / "source.mlp"
    path.write_text("dsn-mlp v1\n" + body)
    return "adapt_grl", f"pretrained_model = {path}", f"{path.name}: line {line}:"


def _empty_model_file(tmp_path):
    mode, line, name = _bad_mlp_file(tmp_path, "", 1)
    (tmp_path / "source.mlp").write_text("")
    return mode, line, f"{tmp_path / 'source.mlp'}: empty file"


def _output_is_a_directory(tmp_path, mode, name):
    # the --out `clash` holds a directory where the mode writes a file; no compute runs
    (tmp_path / "outs" / "clash" / name).mkdir(parents=True)
    return mode, "", f"clash: cannot write {name}: Is a directory"


def _manifest_without(tmp_path, key):
    mode, line, name = _bad_model_file(tmp_path, (f"{key}=", f"x{key}="))  # `{key}=` occurs once on the line
    return mode, line, f"{name}: line 2: manifest is missing '{key}'"


class Bad(NamedTuple):
    """A bad input. `case` is (mode, config text, a fragment of the message), or
    a function of the test's directory that writes the input files and returns
    it; a config of None runs without --config."""

    id: str
    code: int
    case: tuple | Callable
    flags: tuple[str, ...] = ()
    outs: tuple[str, ...] = ("new/out", "kept")  # each --out the input is run with, all left as found
    poison: str | None = None  # the sub-network whose every gradient gets a NaN


_PATHS = (("data_dir", "pretrain"), ("pretrained_model", "adapt_grl"), ("model_path", "evaluate"))  # key, its mode
_BAD = {
    "test_non_finite_coefficient_is_a_config_error": [
        Bad(f"{flag}-{value}", 1, ("pretrain", "", f"{flag[2:]} must be finite and >= 0, got {value}"), (flag, value))
        for flag, value in (("--alpha", "nan"), ("--beta", "nan"), ("--gamma", "inf"))
    ],
    "test_unparsable_flag_is_a_config_error": [
        Bad("--n-h-2.5-n_h", 1, ("pretrain", "", "n_h: expected an integer, got '2.5'"), ("--n-h", "2.5")),
        Bad("--alpha-abc-alpha", 1, ("pretrain", "", "alpha: expected a number, got 'abc'"), ("--alpha", "abc")),
    ],
    "test_unknown_mode_writes_nothing": [Bad("bogus", 1, ("bogus", "", "unknown mode 'bogus'; expected one of"))],
    "test_bad_command_line_is_a_config_error": [
        Bad("unrecognized-flag", 1, ("pretrain", "", "unrecognized arguments: --bogus"), ("--bogus",)),
        Bad("flag-without-value", 1, ("pretrain", "", "argument --seed: expected one argument"), ("--seed",)),
    ],
    "test_bad_sweep_grid_fails_before_any_compute": [
        Bad(line, 1, ("sweep", line, message)) for line, message in (
            ("sweep.alpha = 1, nan", "sweep.alpha must be finite and >= 0, got nan"),
            ("sweep.alpha = -1", "sweep.alpha must be finite and >= 0, got -1.0"),
            ("sweep.n_h = 1, 4", "sweep.n_h 4 exceeds the 3 hidden layers of net.source_hidden"),
        )
    ],
    "test_sweep_without_a_model_is_bounded_by_the_config_widths": [
        # the bound follows net.source_hidden as the config sets it, not its default 3 widths
        Bad("no-model", 1, ("sweep", "net.source_hidden = 8, 8\nsweep.n_h = 1, 3",
                            "sweep.n_h 3 exceeds the 2 hidden layers of net.source_hidden")),
    ],
    "test_bad_input_is_a_config_error": [
        Bad("config-not-utf8", 1, ("pretrain", b"seed = 1\nalpha = 1  # caf\xe9\n", "run.cfg: line 2: not UTF-8 text")),
        Bad("empty-key", 1, ("pretrain", "seed = 1\n = 3", "run.cfg: line 2: empty key")),
        Bad("nan-noise-std", 1, ("pretrain", "synth.noise_std = nan", "synth.noise_std must be finite")),
        Bad("inf-class-separation", 1,
            ("pretrain", "synth.class_separation = inf", "synth.class_separation must be finite")),
        Bad("nan-channel-scale", 1,
            ("pretrain", "synth.channel_matrix_scale = nan", "synth.channel_matrix_scale must be finite")),
        Bad("out-is-a-file", 1, ("pretrain", "", "taken: cannot make the output directory"), outs=("taken",)),
        *[Bad(f"{mode}-{name}-is-a-directory", 1, lambda d, mode=mode, name=name: _output_is_a_directory(d, mode, name),
              outs=("clash",))
          for mode, name in (("pretrain", "model.dsn"), ("adapt_grl", "trace.csv"), ("evaluate", "report.csv"),
                             ("sweep", "sweep.csv"))],
        # finite frames whose variance overflows float64
        Bad("overflowing-class-separation", 1, ("pretrain", "synth.class_separation = 1e200", _OVERFLOW)),
        # frames that overflow while drawn: numpy's own overflow warnings stay silent
        Bad("overflowing-noise-draw", 1, ("pretrain", "synth.noise_std = 1e308", _OVERFLOW)),
        Bad("overflowing-channel-draw", 1, ("pretrain", "synth.channel_matrix_scale = 1e308", _OVERFLOW)),
        *[Bad(f"nul-in-{key}", 1, (mode, f"{key} = a\0b", f"{key}: a path cannot hold a NUL byte"))
          for key, mode in _PATHS],
        *[Bad(f"empty-{key}", 1, (mode, f"{key} =", f"{key}: a path cannot be empty, got ''")) for key, mode in _PATHS],
    ],
    "test_n_h_deeper_than_the_model_is_a_config_error": [
        Bad("adapt_grl-", 1, lambda d: _deeper_than("adapt_grl", "", "n_h", 2, _shallow_model(d), 1)),
        Bad("sweep-sweep.n_h = 1, 2\n", 1,
            lambda d: _deeper_than("sweep", "sweep.n_h = 1, 2", "sweep.n_h", 2, _shallow_model(d), 1)),
        Bad("sweep-deeper-than-the-model", 1, lambda d: _deeper_than(
            "sweep", _TINY + "sweep.n_h = 1, 5\nsweep.alpha = 1", "sweep.n_h", 5, _deep_model(d, 4), 4)),
    ],
    "test_n_h_is_bounded_by_the_pretrained_model": [
        Bad("deeper-than-the-model", 1,
            lambda d: _deeper_than("adapt_grl", _TINY + "n_h = 7", "n_h", 7, _deep_model(d, 3), 3)),
    ],
    "test_a_run_that_fails_leaves_out_as_it_found_it": [
        *[Bad(f"batch-{mode}", 1,
              lambda d, mode=mode: _late_failure(d, mode, "batch = 100000", "batch size 100000 exceeds corpus size 80"))
          for mode in ("pretrain", "adapt_grl", "adapt_dsn", "sweep")],
        Bad("diverged-pretrain", 3, lambda d: _late_failure(d, "pretrain", "batch = 16\nmu = 1e308", "epoch 1:")),
        # with x missing, a mkdir of x/../y makes x as well as y
        Bad("batch-pretrain-through-a-missing-directory", 1, lambda d: _late_failure(
            d, "pretrain", "batch = 100000", "batch size 100000 exceeds corpus size 80"), outs=("x/../y",)),
    ],
    # At mu = 1e150 pretraining's sigmoid layers saturate (zero derivative) and its
    # loss is clamped, so it never overflows; at 1e308 the output layer's logits do.
    # Adaptation overflows its reconstruction path at 1e150.
    "test_divergence_exits_3_naming_the_epoch": [
        Bad(f"{mode}-{mu}", 3, lambda d, mode=mode, mu=mu: (
            mode, _TINY + f"mu = {mu}\npretrained_model = {_source_model(d)}", "epoch 1:"))
        for mode, mu in (("pretrain", "1e308"), ("adapt_dsn", "1e150"))
    ],
    "test_non_finite_gradient_exits_3_naming_the_subnetwork": [
        Bad("domain", 3, lambda d: ("adapt_dsn", _TINY + f"pretrained_model = {_source_model(d)}",
                                    "epoch 1: domain: non-finite gradient; training aborted"), poison="domain"),
    ],
    "test_loader_failure_is_a_data_error": [
        Bad("missing-pretrained-model", 2,
            lambda d: ("adapt_grl", f"pretrained_model = {d / 'missing.mlp'}", "missing.mlp")),
        Bad("missing-corpus", 2, lambda d: ("pretrain", f"data_dir = {d}", "source_train.csv")),
        Bad("missing-model-path", 2, lambda d: ("evaluate", f"model_path = {d / 'missing.dsn'}", "missing.dsn")),
        Bad("spliced-data-dir", 2, _spliced_data_dir),
        Bad("narrow-pretrained-model", 2, lambda d: _narrow_model(d, "adapt_grl", "pretrained_model")),
        Bad("narrow-model-path", 2, lambda d: _narrow_model(d, "evaluate", "model_path")),
        Bad("bad-manifest-value", 2, lambda d: _bad_model_file(d, ("alpha=1", "alpha=abc"))),
        Bad("negative-beta-in-model", 2, lambda d: _bad_model_file(d, ("beta=0", "beta=-1"))),
        Bad("inf-alpha-in-model", 2, lambda d: _bad_model_file(d, ("alpha=1", "alpha=inf"))),
        Bad("nan-weight", 2, lambda d: _bad_mlp_file(d, "layer 0 2 1 linear\n1.0 nan\n0.0\n", 3)),
        Bad("inf-bias", 2, lambda d: _bad_mlp_file(d, "layer 0 2 1 linear\n1.0 2.0\ninf\n", 4)),
        Bad("layer-chain-mismatch", 2,
            lambda d: _bad_mlp_file(d, "layer 0 2 1 sigmoid\n1 2\n0\nlayer 1 3 1 linear\n1 2 3\n0\n", 5)),
        Bad("non-final-softmax", 2,
            lambda d: _bad_mlp_file(d, "layer 0 2 2 softmax\n1 2\n3 4\n0 0\nlayer 1 2 1 linear\n1 2\n0\n", 6)),
        Bad("zero-width-layer", 2, lambda d: _bad_mlp_file(d, "layer 0 0 1 linear\n\n0\n", 2)),
        # a fourth weight row read as the bias leaves the real bias row over
        Bad("extra-weight-row", 2,
            lambda d: _bad_mlp_file(d, "layer 0 3 3 linear\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n0 0 0\n", 7)),
        Bad("trailing-line", 2, _trailing_line_model),
        Bad("sigmoid-senone-in-model", 2, _sigmoid_senone_model),
        Bad("repeated-manifest-key", 2, lambda d: (*_bad_model_file(d, ("gamma=0", "gamma=0 alpha=7"))[:2],
                                                   "model.dsn: line 2: duplicate manifest key 'alpha'")),
        Bad("empty-source-train", 2,
            lambda d: _data_dir(d, "pretrain", "source_train.csv: no records", source_train=_HEADER.format(1))),
        Bad("unlabeled-source-train", 2, lambda d: _data_dir(
            d, "pretrain", "source_train.csv: line 3: label -1",
            source_train=_HEADER.format(1) + "u,0,src,0,1.5\nu,1,src,-1,2.5\n")),
        Bad("source-train-tagged-tgt", 2, lambda d: _data_dir(
            d, "pretrain", "source_train.csv: line 2: domain tag 'tgt'; source_train holds source frames",
            source_train=_HEADER.format(1) + "u,0,tgt,0,1.5\nu,1,tgt,1,2.5\n")),
        Bad("target-adapt-tagged-src", 2, lambda d: _data_dir(
            d, "adapt_dsn", "target_adapt.csv: line 2: domain tag 'src'; target_adapt holds target frames",
            source_train=_HEADER.format(1) + "u,0,src,0,1.5\n", target_adapt=_HEADER.format(1) + "v,0,src,-1,1.5\n")),
        Bad("empty-target-adapt", 2, lambda d: _data_dir(d, "adapt_dsn", "target_adapt.csv: no records",
                                                         source_train=_HEADER.format(1) + "u,0,src,0,1.5\n",
                                                         target_adapt=_HEADER.format(1))),
        Bad("different-dims", 2, lambda d: _data_dir(d, "pretrain", "source_train.csv has dim=2",
                                                     source_train=_HEADER.format(2) + "u,0,src,0,1.5,2.5\n",
                                                     target_adapt=_HEADER.format(1) + "v,0,tgt,-1,1.5\n")),
        Bad("too-few-classes", 2, _few_classes_model),
        Bad("label-beyond-synth-num-classes", 2, lambda d: _data_dir(
            d, "pretrain", "source_test.csv: label 12, but synth.num_classes is 10",
            source_train=_HEADER.format(1) + "u,0,src,0,1.5\nu,1,src,1,2.5\n",
            target_adapt=_HEADER.format(1) + "v,0,tgt,-1,1.5\n", source_test=_HEADER.format(1) + "w,0,src,12,1.5\n")),
        Bad("manifest-n-h-contradicts-nets", 2, lambda d: _bad_model_file(d, ("n_h=1", "n_h=5"))),
        Bad("nets-line-lacks-heads", 2, lambda d: _bad_nets_line(d, "nets shared")),
        Bad("nets-line-repeats-a-name", 2, lambda d: _bad_nets_line(d, "nets shared senone domain domain")),
        Bad("pretrained-model-without-softmax", 2, _sigmoid_output_model),
        Bad("corpus-not-utf8", 2, lambda d: _unreadable_corpus(
            d, lambda p: p.write_bytes(_HEADER.format(1).encode() + b"u\xe9,0,src,0,1.5\n"), "line 2: not UTF-8 text")),
        Bad("corpus-is-a-directory", 2, lambda d: _unreadable_corpus(d, Path.mkdir, "cannot read:")),
        Bad("mlp-not-utf8", 2, lambda d: _not_utf8(_bad_mlp_file(d, "layer 0 2 1 linear\n1.0 2.0\n0.0\n", 0), 3)),
        Bad("model-not-utf8", 2, lambda d: _not_utf8(_bad_model_file(d, ("", "")), 5)),
        Bad("overflowing-statistics", 2, lambda d: _data_dir(
            d, "pretrain", f"{d / 'source_train.csv'} and {d / 'target_adapt.csv'}: feature dim 2 of 2: "
            "its mean or variance overflows float64",
            source_train=_HEADER.format(2) + "u,0,src,0,1.5,1e200\nu,1,src,1,2.5,-1e200\n",
            target_adapt=_HEADER.format(2) + "v,0,tgt,-1,1.5,1e200\n",
            source_test=_HEADER.format(2) + "w,0,src,0,1.5,-1e200\n")),
    ],
    "test_each_rejection_is_one_line_naming_its_source": [
        Bad("evaluate-without-model-path", 1, ("evaluate", "", "model_path")),
        Bad("adapt-grl-without-pretrained-model", 1, ("adapt_grl", "", "pretrained_model")),
        Bad("adapt-dsn-without-pretrained-model", 1, ("adapt_dsn", "", "pretrained_model")),
        Bad("no-config", 1, ("pretrain", None, "the following arguments are required: --config")),
        Bad("empty-corpus-file", 2,
            lambda d: _data_dir(d, "pretrain", "source_train.csv: empty file", source_train="")),
        Bad("corpus-dim-not-an-integer", 2, lambda d: _data_dir(
            d, "pretrain", "source_train.csv: line 1: header needs dim=<n >= 1>",
            source_train="dsn-corpus v1 dim=x spliced=0\n")),
        Bad("empty-model-file", 2, _empty_model_file),
        Bad("model-without-layers", 2,
            lambda d: (*_bad_mlp_file(d, "", 1)[:2], "source.mlp: line 1: model has no layers")),
        Bad("truncated-model", 2, lambda d: (*_bad_mlp_file(d, "layer 0 2 1 linear\n1 2\n", 1)[:2],
                                             "source.mlp: line 4: unexpected end of file")),
        Bad("row-one-value-too-long", 2, lambda d: _bad_mlp_file(d, "layer 0 2 1 linear\n1 2 3\n0\n", 3)),
        Bad("layer-line-of-4-fields", 2, lambda d: _bad_mlp_file(d, "layer 0 2 1\n1 2\n0\n", 2)),
        Bad("non-integer-width", 2, lambda d: _bad_mlp_file(d, "layer 0 2 x linear\n1 2\n0\n", 2)),
        Bad("unknown-activation", 2, lambda d: _bad_mlp_file(d, "layer 0 2 1 tanh\n1 2\n0\n", 2)),
        Bad("malformed-manifest-entry", 2, lambda d: (*_bad_model_file(d, (" n_h=", " n_h "))[:2],
                                                      "model.dsn: line 2: malformed manifest entry 'n_h'")),
        *[Bad(f"manifest-without-{key.replace('_', '-')}", 2, lambda d, key=key: _manifest_without(d, key))
          for key in ("alpha", "n_h", "k", "q", "feature_dim")],
        Bad("no-nets-line", 2, lambda d: _bad_nets_line(d, "shared senone domain")),
        Bad("unknown-net-name", 2, lambda d: _bad_nets_line(d, "nets shared senone domain bogus")),
    ],
}
_PREFIXES = {1: "config error: ", 2: "data error: ", 3: "training diverged: "}


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def _contract_test(rows):
    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(tmp_path, capsys, monkeypatch, row):
        mode, text, fragment = row.case(tmp_path) if callable(row.case) else row.case
        argv = [mode, *row.flags]
        if text is not None:
            (tmp_path / "run.cfg").write_bytes(text if isinstance(text, bytes) else f"{text}\n".encode())
            argv += ["--config", str(tmp_path / "run.cfg")]
        if row.poison:
            poison_dsn_gradient(monkeypatch, row.poison)
        outs = tmp_path / "outs"  # holds every --out: a file, a directory holding one file, and missing paths
        (outs / "kept").mkdir(parents=True)
        (outs / "kept" / "model.dsn").write_text(_KEEP)
        (outs / "taken").write_text(_KEEP)
        found = _tree(outs)
        for out in row.outs:
            assert main([*argv, "--out", str(outs / out)]) == row.code
            err = capsys.readouterr().err
            assert err.startswith(_PREFIXES[row.code]) and fragment in err and "Traceback" not in err
            assert err.count("\n") == 1 and err.endswith("\n")  # one line
            assert _tree(outs) == found  # no directory made along a missing --out, no file added to an existing one

    return test


# Every row runs the one body above; each keeps the test id it had before the
# rows shared that body, so a run of this suite compares with earlier ones id by id.
for _name, _rows in _BAD.items():
    globals()[_name] = _contract_test(_rows)


def test_n_h_as_deep_as_the_pretrained_model_is_accepted(tmp_path, capsys):
    # the model sets the depth, not net.source_hidden (3 widths by default)
    config = tmp_path / "run.cfg"
    config.write_text(_TINY + f"n_h = 4\npretrained_model = {_deep_model(tmp_path, 4)}\n")
    assert main(["adapt_grl", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "model.dsn").is_file()


def test_sweep_depth_is_checked_against_the_model(tmp_path):
    # a 4-hidden-layer model lets sweep.n_h = 4 through, past the 3 widths of net.source_hidden
    config = tmp_path / "run.cfg"
    config.write_text(_TINY + f"sweep.n_h = 4\nsweep.alpha = 1\npretrained_model = {_deep_model(tmp_path, 4)}\n")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "seed,method,n_h,alpha,source_error,target_error"
    assert [line.split(",")[1:4] for line in lines[1:]] == [["pretrain", "", ""], ["adapt_grl", "4", "1"],
                                                           ["adapt_dsn", "4", "1"]]


def test_sweep_rows_are_the_modes_own_scores(tmp_path):
    # one cell, at the n_h and alpha the adaptation modes run with
    cell = "n_h = 1\nalpha = 4\nsweep.n_h = 1\nsweep.alpha = 4\n"

    def run(mode, extra):
        config = tmp_path / f"{mode}.cfg"
        config.write_text(_TINY + cell + extra)
        assert main([mode, "--config", str(config), "--out", str(tmp_path / mode)]) == 0

    run("sweep", "")
    run("pretrain", "")
    for mode in ("adapt_grl", "adapt_dsn"):
        run(mode, f"pretrained_model = {tmp_path / 'pretrain' / 'model.dsn'}\n")
    scored = {}
    for mode in ("pretrain", "adapt_grl", "adapt_dsn"):
        config = tmp_path / "evaluate.cfg"
        config.write_text(_TINY + f"model_path = {tmp_path / mode / 'model.dsn'}\n")
        assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "evaluate" / mode)]) == 0
        report = [line.split(",") for line in (tmp_path / "evaluate" / mode / "report.csv").read_text().splitlines()]
        errors = {corpus: value for kind, corpus, _, _, value in report if kind == "error_rate"}
        scored[mode] = [errors["source_test"], errors["target_test"]]
    rows = [line.split(",") for line in (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]]
    assert {row[1]: row[4:] for row in rows} == scored  # both written to 17 digits, so equal strings are equal floats
    assert [row[2:4] for row in rows] == [["", ""], ["1", "4"], ["1", "4"]]


def test_a_failed_write_is_one_config_error_line(tmp_path, monkeypatch, capsys):
    # a write that fails after training, here on a full disk, names its file,
    # and the run removes the --out it made
    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "write_trace_csv", full)
    config = tmp_path / "run.cfg"
    config.write_text(_TINY)
    out = tmp_path / "out"
    assert main(["pretrain", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: --out {os.path.realpath(out)}: cannot write trace.csv: {os.strerror(errno.ENOSPC)}\n")
    assert not out.exists()


def test_help_names_every_mode(capsys):
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse rewraps the docstring
    assert re.search(r"Modes: ([\w, ]+)\.", text).group(1).split(", ") == list(MODES)


def test_second_run_over_one_data_dir_loads_sidecars_and_matches_the_first(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    bundle = synth_corpus(SynthConfig(10, 3, 4, 20, 3.0, 0.3, 1.0, seed=5))
    for key, filename in DATA_FILES.items():
        write_corpus(getattr(bundle, key), data_dir / filename)

    def run_all(out):
        for mode, extra in (
            ("pretrain", ""),
            ("adapt_dsn", f"pretrained_model = {out / 'pretrain' / 'model.dsn'}\n"),
            ("evaluate", f"model_path = {out / 'adapt_dsn' / 'model.dsn'}\n"),
        ):
            config = tmp_path / f"{mode}.cfg"
            config.write_text(_TINY + f"data_dir = {data_dir}\n" + extra)
            assert main([mode, "--config", str(config), "--out", str(out / mode)]) == 0

    run_all(tmp_path / "first")
    assert sorted(p.name for p in data_dir.glob(".*")) == [
        ".source_test.csv.labeled.npz", ".source_train.csv.labeled.npz",
        ".target_adapt.csv.unlabeled.npz", ".target_test.csv.labeled.npz",
    ]

    def no_parse(*args):
        raise AssertionError("a corpus file was parsed again")

    monkeypatch.setattr(data, "_parse_corpus", no_parse)
    run_all(tmp_path / "second")
    first, second = (sorted(str(p.relative_to(tmp_path / run)) for p in (tmp_path / run).rglob("*") if p.is_file())
                     for run in ("first", "second"))
    assert first == second == ["adapt_dsn/model.dsn", "adapt_dsn/report.csv", "adapt_dsn/trace.csv",
                               "evaluate/report.csv", "pretrain/model.dsn", "pretrain/report.csv",
                               "pretrain/trace.csv"]  # no sidecar in --out
    for name in first:
        assert (tmp_path / "second" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()


def test_adapt_report_scores_source_test_and_no_target_test(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(_TINY)
    assert main(["pretrain", "--config", str(config), "--out", str(tmp_path / "pretrain")]) == 0
    config.write_text(_TINY + f"pretrained_model = {tmp_path / 'pretrain' / 'model.dsn'}\n")
    assert main(["adapt_grl", "--config", str(config), "--out", str(tmp_path / "adapt")]) == 0
    rows = [line.split(",") for line in (tmp_path / "adapt" / "report.csv").read_text().splitlines()[1:]]
    assert rows[0] == ["mode", "", "", "", "adapt_grl"]
    corpora = {row[1] for row in rows if row[0] in ("frames", "errors", "error_rate", "confusion")}
    assert corpora == {"source_test"}  # no target_test row: adaptation loads no target labels
    assert len((tmp_path / "adapt" / "trace.csv").read_text().splitlines()) == 1 + 2  # header, then 2 epochs
