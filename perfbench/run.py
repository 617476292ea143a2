"""Benchmark entry point for dsnadapt.

    python3 perfbench/run.py --workload trend --seed 1 --seconds 45 --trace 0

Runs one workload (trend or cli_files; see perfbench/README.md) in
this process and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are
its per-layer metrics, from a traced pass. The full record of the run, with
its environment, is written to .perfbench_out/ under the checkout root.

Exits with 2, printing no result, when the checkout has no dsnadapt sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("trend", "cli_files")
# One BLAS thread: at this program's matrix sizes it is faster than two on a
# 2-core machine, and it leaves the run less exposed to other load.
BLAS_THREADS = 1


def load_bench():
    """Pin BLAS threads (before numpy is first imported), put the checkout's
    src/ first on the import path and import the workloads module. Raises
    ImportError when the checkout holds no dsnadapt package."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    src = ROOT / "src"
    if not (src / "dsnadapt" / "__init__.py").is_file():
        raise ImportError(f"no dsnadapt package under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = load_bench()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    result, record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.OUT_DIR.mkdir(exist_ok=True)
    out = bench.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
