from pathlib import Path

import pytest

from dsnadapt import cli, data
from dsnadapt.cli import main
from dsnadapt.data import SynthConfig, synth_corpus, write_corpus
from dsnadapt.dsn import DsnModel, save_dsn_model
from dsnadapt.nn import Rng, init_mlp, save_mlp
from dsnadapt.pipeline import DATA_FILES
from oracles import poison_dsn_gradient


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--beta", "nan"), ("--gamma", "inf")])
def test_non_finite_coefficient_is_a_config_error(tmp_path, capsys, flag, value):
    config = tmp_path / "run.cfg"
    config.write_text("")
    code = main(["pretrain", "--config", str(config), "--out", str(tmp_path / "out"), flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and flag[2:] in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # rejected before any compute


@pytest.mark.parametrize("flag, value, key", [("--n-h", "2.5", "n_h"), ("--alpha", "abc", "alpha")])
def test_unparsable_flag_is_a_config_error(tmp_path, capsys, flag, value, key):
    config = tmp_path / "run.cfg"
    config.write_text("")
    code = main(["pretrain", "--config", str(config), "--out", str(tmp_path / "out"), flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: {key}:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_seed_flag_sets_master_and_synth_seed(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 3\nsynth.seed = 4\nn_h = 0\n")  # n_h = 0 is repaired by --n-h
    seen = []
    monkeypatch.setattr(cli, "_run_mode", lambda mode, cfg, out: seen.append(cfg))
    assert main(["pretrain", "--config", str(config), "--seed", "9", "--n-h", "1"]) == 0
    assert (seen[0].seed, seen[0].synth.seed, seen[0].n_h) == (9, 9, 1)


def test_unknown_mode_writes_nothing(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text("")
    code = main(["bogus", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: unknown mode 'bogus'")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["sweep.alpha = 1, nan", "sweep.alpha = -1", "sweep.n_h = 1, 4"])
def test_bad_sweep_grid_fails_before_any_compute(tmp_path, capsys, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and "sweep." in err
    assert not (tmp_path / "out").exists()


_KEEP = "not a directory\n"


@pytest.mark.parametrize(
    "text, out_is_file, name",
    [
        (b"seed = 1  # caf\xe9\n", False, "run.cfg"),
        (b"synth.noise_std = nan\n", False, "synth.noise_std"),
        (b"synth.class_separation = inf\n", False, "synth.class_separation"),
        (b"synth.channel_matrix_scale = nan\n", False, "synth.channel_matrix_scale"),
        (b"", True, "taken"),
        # finite frames whose variance overflows float64
        (b"synth.class_separation = 1e200\n", False, "the synth.* profile: feature dim 1 of 8: its mean or variance"),
        # frames that overflow while drawn: numpy's own overflow warnings stay silent
        (b"synth.noise_std = 1e308\n", False, "the synth.* profile: feature dim 1 of 8: its mean or variance"),
        (b"synth.channel_matrix_scale = 1e308\n", False, "the synth.* profile: feature dim 1 of 8: its mean or variance"),
    ],
    ids=["config-not-utf8", "nan-noise-std", "inf-class-separation", "nan-channel-scale", "out-is-a-file",
         "overflowing-class-separation", "overflowing-noise-draw", "overflowing-channel-draw"],
)
def test_bad_input_is_a_config_error(tmp_path, capsys, text, out_is_file, name):
    config = tmp_path / "run.cfg"
    config.write_bytes(text)
    out = tmp_path / "taken"
    if out_is_file:
        out.write_text(_KEEP)
    code = main(["pretrain", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and name in err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n")  # one message, nothing else
    assert out.read_text() == _KEEP if out_is_file else not out.exists()  # the file is left untouched


def _shallow_model(tmp_path):
    path = tmp_path / "shallow.mlp"
    save_mlp(init_mlp([(40, 8, "sigmoid"), (8, 10, "softmax")], Rng(1)), path)  # one hidden layer
    return path


@pytest.mark.parametrize("mode, line", [("adapt_grl", ""), ("sweep", "sweep.n_h = 1, 2\n")])
def test_n_h_deeper_than_the_model_is_a_config_error(tmp_path, capsys, mode, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + f"pretrained_model = {_shallow_model(tmp_path)}\n")
    code = main([mode, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and "exceeds the 1 hidden layers of" in err and "shallow.mlp" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


_TINY = "synth.utterances_per_domain = 4\nsynth.frames_per_utterance = 20\nsynth.base_dim = 3\nepochs = 2\nbatch = 16\n"


def _deep_model(tmp_path, hidden):
    """A model for the _TINY corpora (3 * 5 = 15 spliced columns) with the
    given number of 4-wide hidden layers."""
    path = tmp_path / "deep.mlp"
    save_mlp(init_mlp([(15, 4, "sigmoid")] + [(4, 4, "sigmoid")] * (hidden - 1) + [(4, 10, "softmax")], Rng(1)), path)
    return path


@pytest.mark.parametrize("hidden, n_h", [(3, 7), (4, 4)], ids=["deeper-than-the-model", "as-deep-as-the-model"])
def test_n_h_is_bounded_by_the_pretrained_model(tmp_path, capsys, hidden, n_h):
    # the model sets the depth, not net.source_hidden (3 widths by default)
    config = tmp_path / "run.cfg"
    config.write_text(_TINY + f"n_h = {n_h}\npretrained_model = {_deep_model(tmp_path, hidden)}\n")
    code = main(["adapt_grl", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if n_h > hidden:
        assert code == 1
        assert err.startswith(f"config error: n_h {n_h} exceeds the {hidden} hidden layers of") and "deep.mlp" in err
        assert not (tmp_path / "out").exists()
    else:
        assert code == 0 and err == ""
        assert (tmp_path / "out" / "model.dsn").is_file()


def test_sweep_depth_is_checked_against_the_model(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    model = _deep_model(tmp_path, 4)
    config.write_text(_TINY + f"sweep.n_h = 1, 5\nsweep.alpha = 1\npretrained_model = {model}\n")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep.n_h 5 exceeds the 4 hidden layers of") and "deep.mlp" in err
    assert not (tmp_path / "out").exists()
    # a 4-hidden-layer model lets sweep.n_h = 4 through, past the 3 widths of net.source_hidden
    config.write_text(_TINY + f"sweep.n_h = 4\nsweep.alpha = 1\npretrained_model = {model}\n")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_text().startswith("n_h,1,avg\n4,")


def test_sweep_without_a_model_is_bounded_by_the_config_widths(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("sweep.n_h = 1, 4\n")  # net.source_hidden has 3 widths by default
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep.n_h 4 exceeds the 3 hidden layers of net.source_hidden")
    assert not (tmp_path / "out").exists()


# At mu = 1e150 pretraining's sigmoid layers saturate (zero derivative) and its
# loss is clamped, so it never overflows; at 1e308 the output layer's logits do.
# Adaptation overflows its reconstruction path at 1e150.
@pytest.mark.parametrize("mode, mu", [("pretrain", "1e308"), ("adapt_dsn", "1e150")])
def test_divergence_exits_3_naming_the_epoch(tmp_path, capsys, mode, mu):
    model = tmp_path / "source.mlp"
    save_mlp(init_mlp([(15, 6, "sigmoid"), (6, 6, "sigmoid"), (6, 10, "softmax")], Rng(1)), model)
    config = tmp_path / "run.cfg"
    config.write_text(_TINY + f"mu = {mu}\npretrained_model = {model}\n")
    code = main([mode, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("training diverged: epoch 1:")
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_non_finite_gradient_exits_3_naming_the_subnetwork(tmp_path, capsys, monkeypatch):
    poison_dsn_gradient(monkeypatch, "domain")
    model = tmp_path / "source.mlp"
    save_mlp(init_mlp([(15, 6, "sigmoid"), (6, 6, "sigmoid"), (6, 10, "softmax")], Rng(1)), model)
    config = tmp_path / "run.cfg"
    config.write_text(_TINY + f"pretrained_model = {model}\n")
    code = main(["adapt_dsn", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == "training diverged: epoch 1: domain: non-finite gradient; training aborted\n"


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


def _few_classes_model(tmp_path):
    path = tmp_path / "three.mlp"
    save_mlp(init_mlp([(40, 8, "sigmoid"), (8, 8, "sigmoid"), (8, 3, "softmax")], Rng(1)), path)
    return "adapt_grl", f"pretrained_model = {path}", f"{path.name}: the model has 3 classes, the corpora have label 9"


def _bad_mlp_file(tmp_path, body, line):
    path = tmp_path / "source.mlp"
    path.write_text("dsn-mlp v1\n" + body)
    return "adapt_grl", f"pretrained_model = {path}", f"{path.name}: line {line}:"


@pytest.mark.parametrize(
    "case",
    [
        lambda d: ("adapt_grl", f"pretrained_model = {d / 'missing.mlp'}", "missing.mlp"),
        lambda d: ("pretrain", f"data_dir = {d}", "source_train.csv"),
        lambda d: ("evaluate", f"model_path = {d / 'missing.dsn'}", "missing.dsn"),
        _spliced_data_dir,
        lambda d: _narrow_model(d, "adapt_grl", "pretrained_model"),
        lambda d: _narrow_model(d, "evaluate", "model_path"),
        lambda d: _bad_model_file(d, ("alpha=1", "alpha=abc")),
        lambda d: _bad_model_file(d, ("beta=0", "beta=-1")),
        lambda d: _bad_model_file(d, ("alpha=1", "alpha=inf")),
        lambda d: _bad_mlp_file(d, "layer 0 2 1 linear\n1.0 nan\n0.0\n", 3),
        lambda d: _bad_mlp_file(d, "layer 0 2 1 linear\n1.0 2.0\ninf\n", 4),
        lambda d: _bad_mlp_file(d, "layer 0 2 1 sigmoid\n1 2\n0\nlayer 1 3 1 linear\n1 2 3\n0\n", 5),
        lambda d: _bad_mlp_file(d, "layer 0 2 2 softmax\n1 2\n3 4\n0 0\nlayer 1 2 1 linear\n1 2\n0\n", 6),
        lambda d: _bad_mlp_file(d, "layer 0 0 1 linear\n\n0\n", 2),
        # a fourth weight row read as the bias leaves the real bias row over
        lambda d: _bad_mlp_file(d, "layer 0 3 3 linear\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n0 0 0\n", 7),
        _trailing_line_model,
        _sigmoid_senone_model,
        lambda d: (*_bad_model_file(d, ("gamma=0", "gamma=0 alpha=7"))[:2],
                   "model.dsn: line 2: duplicate manifest key 'alpha'"),
        lambda d: _data_dir(d, "pretrain", "source_train.csv: no records", source_train=_HEADER.format(1)),
        lambda d: _data_dir(d, "pretrain", "source_train.csv: line 3: label -1",
                            source_train=_HEADER.format(1) + "u,0,src,0,1.5\nu,1,src,-1,2.5\n"),
        lambda d: _data_dir(d, "pretrain",
                            "source_train.csv: line 2: domain tag 'tgt'; source_train holds source frames",
                            source_train=_HEADER.format(1) + "u,0,tgt,0,1.5\nu,1,tgt,1,2.5\n"),
        lambda d: _data_dir(d, "adapt_dsn",
                            "target_adapt.csv: line 2: domain tag 'src'; target_adapt holds target frames",
                            source_train=_HEADER.format(1) + "u,0,src,0,1.5\n",
                            target_adapt=_HEADER.format(1) + "v,0,src,-1,1.5\n"),
        lambda d: _data_dir(d, "adapt_dsn", "target_adapt.csv: no records",
                            source_train=_HEADER.format(1) + "u,0,src,0,1.5\n", target_adapt=_HEADER.format(1)),
        lambda d: _data_dir(d, "pretrain", "source_train.csv has dim=2",
                            source_train=_HEADER.format(2) + "u,0,src,0,1.5,2.5\n",
                            target_adapt=_HEADER.format(1) + "v,0,tgt,-1,1.5\n"),
        _few_classes_model,
        lambda d: _data_dir(d, "pretrain", "source_test.csv: label 12, but synth.num_classes is 10",
                            source_train=_HEADER.format(1) + "u,0,src,0,1.5\nu,1,src,1,2.5\n",
                            target_adapt=_HEADER.format(1) + "v,0,tgt,-1,1.5\n",
                            source_test=_HEADER.format(1) + "w,0,src,12,1.5\n"),
        lambda d: _bad_model_file(d, ("n_h=1", "n_h=5")),
        lambda d: _bad_nets_line(d, "nets shared"),
        lambda d: _bad_nets_line(d, "nets shared senone domain domain"),
        _sigmoid_output_model,
        lambda d: _unreadable_corpus(d, lambda p: p.write_bytes(_HEADER.format(1).encode() + b"u\xe9,0,src,0,1.5\n"),
                                     "line 2: not UTF-8 text"),
        lambda d: _unreadable_corpus(d, Path.mkdir, "cannot read:"),
        lambda d: _data_dir(d, "pretrain", f"{d / 'source_train.csv'} and {d / 'target_adapt.csv'}: feature dim 2 of 2: "
                            "its mean or variance overflows float64",
                            source_train=_HEADER.format(2) + "u,0,src,0,1.5,1e200\nu,1,src,1,2.5,-1e200\n",
                            target_adapt=_HEADER.format(2) + "v,0,tgt,-1,1.5,1e200\n",
                            source_test=_HEADER.format(2) + "w,0,src,0,1.5,-1e200\n"),
    ],
    ids=[
        "missing-pretrained-model",
        "missing-corpus",
        "missing-model-path",
        "spliced-data-dir",
        "narrow-pretrained-model",
        "narrow-model-path",
        "bad-manifest-value",
        "negative-beta-in-model",
        "inf-alpha-in-model",
        "nan-weight",
        "inf-bias",
        "layer-chain-mismatch",
        "non-final-softmax",
        "zero-width-layer",
        "extra-weight-row",
        "trailing-line",
        "sigmoid-senone-in-model",
        "repeated-manifest-key",
        "empty-source-train",
        "unlabeled-source-train",
        "source-train-tagged-tgt",
        "target-adapt-tagged-src",
        "empty-target-adapt",
        "different-dims",
        "too-few-classes",
        "label-beyond-synth-num-classes",
        "manifest-n-h-contradicts-nets",
        "nets-line-lacks-heads",
        "nets-line-repeats-a-name",
        "pretrained-model-without-softmax",
        "corpus-not-utf8",
        "corpus-is-a-directory",
        "overflowing-statistics",
    ],
)
def test_loader_failure_is_a_data_error(tmp_path, capsys, case):
    mode, line, name = case(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code = main([mode, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error:") and name in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # rejected before the output directory is made


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
