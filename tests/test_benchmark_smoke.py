"""The benchmark's own smoke run (perfbench/smoke.py) as a test.

Every traced per-layer metric must still be measured, so a change that moves
work off the public entry points the tracer wraps (nn.forward, nn.backward,
...) fails here rather than only when the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stdout + run.stderr
