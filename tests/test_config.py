import re

import pytest

from dsnadapt.config import (
    ExperimentConfig,
    build_config,
    load_config,
    parse_config_text,
)
from dsnadapt.errors import ConfigError

# All 27 keys the config format accepts, with the attribute path each sets.
ACCEPTED_KEYS = {
    **{f"synth.{name}": ("synth", name) for name in (
        "num_classes", "base_dim", "utterances_per_domain", "frames_per_utterance",
        "class_separation", "channel_matrix_scale", "noise_std", "seed",
    )},
    "splice.left": ("splice", "left"),
    "splice.right": ("splice", "right"),
    **{f"net.{name}": ("net", name) for name in (
        "source_hidden", "domain_hidden", "private_hidden", "recon_hidden",
    )},
    **{name: (name,) for name in (
        "n_h", "alpha", "beta", "gamma", "mu", "epochs", "batch", "seed",
        "data_dir", "pretrained_model", "model_path",
    )},
    "sweep.n_h": ("sweep_n_h",),
    "sweep.alpha": ("sweep_alpha",),
}


def _attr(cfg, path):
    for name in path:
        cfg = getattr(cfg, name)
    return cfg


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
    for key in ("nonsense", "synth.bogus", "sweep_n_h", "sweep_alpha", "synth", "net", "synth.seed.x"):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({key: "1"})


@pytest.mark.parametrize("key", sorted(ACCEPTED_KEYS))
def test_every_key_parses_its_default_back(key):
    default = _attr(ExperimentConfig(), ACCEPTED_KEYS[key])
    if default is None:  # path keys take the raw string
        assert _attr(build_config({key: "some/path"}), ACCEPTED_KEYS[key]) == "some/path"
        return
    raw = ", ".join(map(str, default)) if isinstance(default, tuple) else str(default)
    value = _attr(build_config({key: raw}), ACCEPTED_KEYS[key])
    assert value == default and type(value) is type(default)
    if isinstance(default, tuple):
        assert [type(v) for v in value] == [type(v) for v in default]


# Each numeric key's lower bound and the value one step past it. A seed takes
# any integer, so None stands for "nothing below is rejected";
# synth.channel_matrix_scale takes any finite number.
_BOUNDS = {
    **dict.fromkeys(("synth.num_classes", "synth.base_dim", "synth.utterances_per_domain",
                     "synth.frames_per_utterance", "net.source_hidden", "net.domain_hidden",
                     "net.private_hidden", "net.recon_hidden", "n_h", "batch", "sweep.n_h"), ("1", "0")),
    **dict.fromkeys(("splice.left", "splice.right", "epochs"), ("0", "-1")),
    **dict.fromkeys(("synth.class_separation", "synth.noise_std", "alpha", "beta", "gamma", "mu", "sweep.alpha"),
                    ("0", "-5e-324")),  # the float next below 0
    "synth.channel_matrix_scale": ("-1.7976931348623157e308", "-inf"),
    "synth.seed": ("-18446744073709551617", None),
    "seed": ("-18446744073709551617", None),
}


def _range_cases():
    """(key, entry): entry is None for a number, else the index of one entry of a list."""
    for key in sorted(_BOUNDS):
        default = _attr(ExperimentConfig(), ACCEPTED_KEYS[key])
        for entry in range(len(default)) if isinstance(default, tuple) else [None]:
            yield pytest.param(key, entry, id=key if entry is None else f"{key}[{entry}]")


def test_every_numeric_key_has_a_bound():
    numeric = {key for key, path in ACCEPTED_KEYS.items() if _attr(ExperimentConfig(), path) is not None}
    assert set(_BOUNDS) == numeric


@pytest.mark.parametrize("key, entry", _range_cases())
def test_each_number_is_accepted_at_its_bound_and_rejected_past_it(key, entry):
    default = _attr(ExperimentConfig(), ACCEPTED_KEYS[key])
    bound, past = _BOUNDS[key]

    def raw(value):  # the key's text with the one value under test
        return value if entry is None else ", ".join(value if i == entry else str(v) for i, v in enumerate(default))

    kind = type(default if entry is None else default[entry])
    value = _attr(build_config({key: raw(bound)}), ACCEPTED_KEYS[key])
    assert (value if entry is None else value[entry]) == kind(bound)
    if kind is int:  # no upper bound, and no float conversion that would overflow
        assert _attr(build_config({key: raw("9" * 400)}), ACCEPTED_KEYS[key])
    rejected = ([] if past is None else [past]) + (["nan", "inf", "-inf"] if kind is float else [])
    for bad in rejected:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be finite and >= "):
            build_config({key: raw(bad)})
    if entry == 0:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} needs at least one value$"):
            build_config({key: ""})


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("alpha = 1\nalpha = 2\n")


def test_bad_value_types():
    with pytest.raises(ConfigError, match="epochs: expected an integer"):
        build_config({"epochs": "three"})
    with pytest.raises(ConfigError, match="alpha: expected a number"):
        build_config({"alpha": "fast"})
    with pytest.raises(ConfigError, match="n_h: expected an integer"):
        build_config({"n_h": "2.5"})
    with pytest.raises(ConfigError, match="sweep.n_h: expected an integer"):
        build_config({"sweep.n_h": "1, x"})


def test_semantic_validation():
    with pytest.raises(ConfigError, match="n_h must be finite and >= 1, got 0"):
        build_config({"n_h": "0"})
    # the depth bound belongs to the net being split and is checked by the mode
    assert build_config({"n_h": "7"}).n_h == 7
    with pytest.raises(ConfigError):
        build_config({"alpha": "-1"})
    with pytest.raises(ConfigError):
        build_config({"batch": "0"})
    with pytest.raises(ConfigError):
        build_config({"mu": "nan"})
    for bad in ({"beta": "-1"}, {"gamma": "-0.5"}):
        with pytest.raises(ConfigError, match="must be finite and >= 0"):
            build_config(bad)
    for bad in ("nan", "inf", "-1", "1, nan"):
        with pytest.raises(ConfigError, match="sweep.alpha"):
            build_config({"sweep.alpha": bad})
    for bad in ("0", "2, -1"):
        with pytest.raises(ConfigError, match="sweep.n_h"):
            build_config({"sweep.n_h": bad})
    # the grid's upper bound depends on the net and is checked by the sweep mode
    assert build_config({"net.source_hidden": "16, 16"}).sweep_n_h == (1, 2, 3)


def test_line_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("alpha = 1\nnot an assignment\n")


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("alpha = 1.0\nseed = 3\nsynth.seed = 3\n")
    out = load_config(path, {"alpha": "8.0", "seed": "9", "synth.seed": "9"})
    assert out.alpha == 8.0
    assert out.seed == 9
    assert out.synth.seed == 9
    assert load_config(path).alpha == 1.0


def test_overrides_are_validated_with_the_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("n_h = 0\n")
    with pytest.raises(ConfigError):
        load_config(path)
    assert load_config(path, {"n_h": "2"}).n_h == 2  # the merged config is what counts
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path, {"bogus": "1"})


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("mu = 0.125\nsweep.alpha = 1.0, 2.0\n")
    cfg = load_config(path)
    assert cfg.mu == 0.125
    assert cfg.sweep_alpha == (1.0, 2.0)
