"""The repository's pytest settings, run on a module of known outcomes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_MODULE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_rest_of_the_run_reported(tmp_path):
    # on failure hypothesis imports libcst to suggest a patch, which touches a
    # deprecated typing helper; under filterwarnings = error that warning
    # must not abort the run before the tests after it report
    (tmp_path / "test_outcomes.py").write_text(_MODULE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         "-q", str(tmp_path / "test_outcomes.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
