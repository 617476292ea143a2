"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the TINY size (one epoch of each phase on 400 frames
per domain), untraced and traced, and checks that each run is correct and that
no operation failed. A run is correct only if it reports exactly the metrics
its section of BENCHMARK.json names, so this also checks every metric name
and unit. It is not part of the repository's test suite and takes about 15 s.
"""

from __future__ import annotations

import json
import math
import sys

import run


def main() -> int:
    bench = run.load_bench()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    failures = []
    for name in run.WORKLOADS:
        for trace in (False, True):
            result, record = bench.run(name, seed=1, seconds=1, trace=trace, profile=bench.TINY)
            label = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: not correct: {record['problems']}")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                failures.append(f"{label}: non-finite values {bad}")
            print(f"{label}: {'ok' if not failures else 'FAILED'}", flush=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
