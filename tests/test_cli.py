import pytest

from dsnadapt.cli import main


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
