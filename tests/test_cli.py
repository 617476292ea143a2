import pytest

from dsnadapt import cli
from dsnadapt.cli import main
from dsnadapt.dsn import DsnModel, save_dsn_model
from dsnadapt.nn import Rng, init_mlp


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
    config.write_text("seed = 3\nsynth.seed = 4\nn_h = 7\n")  # n_h = 7 is repaired by --n-h
    seen = []
    monkeypatch.setattr(cli, "_run_mode", lambda mode, cfg, out: seen.append(cfg))
    assert main(["pretrain", "--config", str(config), "--seed", "9", "--n-h", "1"]) == 0
    assert (seen[0].seed, seen[0].synth.seed, seen[0].n_h) == (9, 9, 1)


@pytest.mark.parametrize("line", ["sweep.alpha = 1, nan", "sweep.alpha = -1", "sweep.n_h = 1, 4"])
def test_bad_sweep_grid_fails_before_any_compute(tmp_path, capsys, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and "sweep." in err
    assert not (tmp_path / "out").exists()


def _bad_model_file(tmp_path, manifest_edit):
    rng = Rng(1)
    model = DsnModel(
        init_mlp([(10, 4, "sigmoid")], rng), init_mlp([(4, 3, "softmax")], rng),
        init_mlp([(4, 2, "softmax")], rng), None, None, None, alpha=1.0, beta=0.0, gamma=0.0, n_h=1,
    )
    path = tmp_path / "model.dsn"
    save_dsn_model(model, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(*manifest_edit)
    path.write_text("\n".join(lines) + "\n")
    return "evaluate", f"model_path = {path}", path.name


@pytest.mark.parametrize(
    "case",
    [
        lambda d: ("adapt_grl", f"pretrained_model = {d / 'missing.mlp'}", "missing.mlp"),
        lambda d: ("pretrain", f"data_dir = {d}", "source_train.csv"),
        lambda d: _bad_model_file(d, ("alpha=1", "alpha=abc")),
        lambda d: _bad_model_file(d, ("beta=0", "beta=-1")),
    ],
    ids=["missing-pretrained-model", "missing-corpus", "bad-manifest-value", "negative-beta-in-model"],
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
