import pytest

from dsnadapt.config import (
    ExperimentConfig,
    apply_overrides,
    build_config,
    load_config,
    parse_config_text,
)
from dsnadapt.errors import ConfigError


def test_defaults_are_complete():
    cfg = build_config({})
    assert cfg.synth.num_classes == 10
    assert cfg.batch == 128
    assert cfg.epochs == 30


def test_parse_values_and_comments():
    text = """
# toy run
synth.noise_std = 2.5
net.source_hidden = 16, 16   # two hidden layers
alpha = 4.0
n_h = 1
data_dir = /tmp/somewhere
"""
    cfg = build_config(parse_config_text(text))
    assert cfg.synth.noise_std == 2.5
    assert cfg.net.source_hidden == (16, 16)
    assert cfg.alpha == 4.0
    assert cfg.data_dir == "/tmp/somewhere"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({"nonsense": "1"})
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({"synth.bogus": "1"})


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("alpha = 1\nalpha = 2\n")


def test_bad_value_types():
    with pytest.raises(ConfigError):
        build_config({"epochs": "three"})
    with pytest.raises(ConfigError):
        build_config({"alpha": "fast"})


def test_semantic_validation():
    with pytest.raises(ConfigError):
        build_config({"n_h": "7"})  # only 3 hidden layers by default
    with pytest.raises(ConfigError):
        build_config({"alpha": "-1"})
    with pytest.raises(ConfigError):
        build_config({"batch": "0"})
    with pytest.raises(ConfigError):
        build_config({"mu": "nan"})


def test_line_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("alpha = 1\nnot an assignment\n")


def test_overrides_beat_file_values():
    cfg = build_config({"alpha": "1.0", "seed": "3"})
    out = apply_overrides(cfg, seed=9, alpha=8.0)
    assert out.alpha == 8.0
    assert out.seed == 9
    assert out.synth.seed == 9  # data follows the master seed
    assert cfg.alpha == 1.0  # original untouched


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("mu = 0.125\nsweep.alpha = 1.0, 2.0\n")
    cfg = load_config(path)
    assert cfg.mu == 0.125
    assert cfg.sweep_alpha == (1.0, 2.0)
