"""Benchmark of the blowup package, one seeded workload per run.

From the repository root:

    python3 bench/run.py --workload stream --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 26 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics and
--trace 1 the per-layer metrics. The exit code is non-zero when any answer is
wrong. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("exhaustive", "stream", "anneal", "certify")
# One BLAS thread: operations run one at a time, and a fixed setting keeps
# runs on a shared machine comparable. Recorded in each result's provenance.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after another; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"bench: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            worst = max(worst, 1)
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("bench: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "blowup" / "__init__.py").is_file():
        print(f"bench: no blowup sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import blowup.cli

    if not Path(blowup.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: imported blowup from {blowup.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    from blowbench.harness import run
    from blowbench.workloads import make_workloads

    return run(make_workloads()[args.workload], args.seed, args.seconds, bool(args.trace), ROOT, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
