"""Run one workload: set-up, timed passes, checks, report.

An untraced run reports the end-to-end metrics. A traced run measures half
its time untraced and half traced, then times the workload's small command in
fresh processes. It reports the per-layer metrics from the trace, those
fresh-process times, and the gap between the two halves as
`trace.overhead_frac`. Counts
come from the first traced pass, which is identical for a given seed, so two
traced runs give the same counts; times are per pass, averaged over the
traced passes.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .tracing import ALL_SPANS, EIG_SINGLE_BUCKETS, Tracer, instrument
from .workloads import Workload

SETUP_REPS = 7
COLD_RUNS = 10
MAX_REPORTED_FAILURES = 10

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for span in ALL_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({
        "eig.single.calls": "count",
        "eig.single.self_s": "s",
        "eig.single.flops_computed": "n3",
        "eig.batched.matrices": "count",
        "search.exhaustive_max.evaluations": "count",
        "search.exhaustive.evals_per_class": "ratio",
        "search.stream_max.evaluations": "count",
        "search.stream.eigensolves_per_distinct": "ratio",
        "search.local_search.evaluations": "count",
        "families.SpectralDescriptor.validate_s": "s",
        "families.SpectralDescriptor.validate_eigensolves": "count",
        "bounds.certify.eigensolves": "count",
        "exact.Quadratic.calls": "count",
        "cli.import_s": "s",
        "cli.cold_best_s": "s",
        "latency.op_best_ms": "ms",
        "latency.op_best_p90_ms": "ms",
        "trace.overhead_frac": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures += failures


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def measure(wl: Workload, seconds: float, tally: Tally, after_pass=None) -> dict:
    """Run passes until `seconds` have passed (at least one); time only the program.

    after_pass(passes) runs after each pass. Returns each pass's operation
    times, each operation's best time over the passes, and the work units of
    one pass.
    """
    passes: list[list[float]] = []
    start = time.perf_counter()
    while True:
        res = wl.run_pass()
        passes.append(res.op_seconds)
        tally.add(len(res.op_seconds), res.failures)
        if after_pass is not None:
            after_pass(len(passes))
        if time.perf_counter() - start >= seconds:
            break
    best = [min(times) for times in zip(*passes)]
    return {"passes": passes, "best": best, "units": res.units}


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def cold_runs(wl: Workload, root: Path, tally: Tally) -> list[float]:
    """Fresh-process CLI invocations, one at a time, as the console script runs them."""
    argv, stdin = wl.cold_command()
    code = "import sys; from blowup.cli import main; sys.exit(main())"
    times = []
    for _ in range(COLD_RUNS):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *argv], input=stdin, capture_output=True,
                              text=True, cwd=root, env=_env(root), timeout=120)
        times.append(time.perf_counter() - t)
        try:
            wl.check_cold(proc.returncode, proc.stdout)
            failures = []
        except Exception as e:  # noqa: BLE001 - a wrong answer is counted, not raised
            failures = [f"fresh-process {' '.join(argv)}: {type(e).__name__}: {e} {proc.stderr[-300:]}"]
        tally.add(1, failures)
    return times


def import_seconds(root: Path) -> float:
    """Time to import blowup.cli (numpy included) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import blowup.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env=_env(root), timeout=120, check=True)
    return float(proc.stdout.strip())


def provenance(root: Path, workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                         "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def latencies(run: dict) -> dict:
    """Per-operation times from each operation's fastest repetition (ms)."""
    return {"op_best_ms": statistics.median(run["best"]) * 1e3,
            "op_best_p90_ms": percentile(run["best"], 90) * 1e3}


def end_to_end(setup_s: float, run: dict) -> tuple[dict, dict]:
    """Throughput from each operation's fastest repetition in the run; see the notes for why."""
    values = {
        "setup_s": setup_s,
        "work_per_s": run["units"] / sum(run["best"]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": SETUP_REPS,
        "work_per_s": f"{len(run['best'])} ops x {len(run['passes'])}",
        "peak_rss_mib": 1,
    }
    return values, samples


def not_gated(wl: Workload, run: dict) -> dict:
    """Figures reported but not gated: latencies, the workload's own, and medians over every repetition."""
    ops = [t for times in run["passes"] for t in times]
    return {
        **latencies(run),
        **wl.extra_figures(run["best"]),
        "work_per_s_median": statistics.median(run["units"] / sum(times) for times in run["passes"]),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p95_ms": percentile(ops, 95) * 1e3,
    }


def per_layer(wl: Workload, tracer: Tracer, first: dict, traced: dict, untraced: dict,
              import_s: float, cold: list[float]) -> dict:
    passes = len(traced["passes"])
    values = {name: 0 for name in PER_LAYER}
    for span in ALL_SPANS:
        values[f"{span}.calls"] = first.get(f"{span}.calls", 0)
        values[f"{span}.self_s"] = tracer.time_of(span) / passes
    singles = [name for _, name in EIG_SINGLE_BUCKETS]
    values["eig.single.calls"] = sum(values[f"{s}.calls"] for s in singles)
    values["eig.single.self_s"] = sum(values[f"{s}.self_s"] for s in singles)
    values["eig.single.flops_computed"] = first.get("eig.single.flops_computed", 0)
    values["eig.batched.matrices"] = first.get("eig.batched.matrices", 0)
    values["families.SpectralDescriptor.validate_s"] = (
        tracer.time_of("families.SpectralDescriptor.validate", "total") / passes)
    values["families.SpectralDescriptor.validate_eigensolves"] = first.get(
        "families.SpectralDescriptor.validate.solves_within", 0)
    values["bounds.certify.eigensolves"] = first.get("bounds.certify.solves_within", 0)
    values["exact.Quadratic.calls"] = first.get("exact.Quadratic.calls", 0)
    values["cli.import_s"] = import_s
    values["cli.cold_best_s"] = min(cold)
    values.update({f"latency.{k}": v for k, v in latencies(untraced).items()})
    values["trace.overhead_frac"] = sum(traced["best"]) / sum(untraced["best"]) - 1.0
    values.update(wl.layer_counts(first))
    return values


def _print_report(wl: Workload, metrics: dict, units: dict, samples: dict, record: dict,
                  tally: Tally) -> None:
    for name, value in metrics.items():
        alias = wl.aliases.get(name)
        extra = f"  [{alias}]" if alias else ""
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:<48} {value:>16.6g} {units[name]:<6}{count}{extra}")
    for name, value in record.get("not_gated", {}).items():
        alias = wl.aliases.get(name)
        extra = f"  [{alias}]" if alias else ""
        print(f"  {name:<48} {value:>16.6g}        (not gated){extra}")
    frac = len(tally.failures) / max(1, tally.attempted)
    print(f"  failed_frac {frac:.6g} ({len(tally.failures)} of {tally.attempted} operations)")
    for msg in tally.failures[:MAX_REPORTED_FAILURES]:
        print(f"bench: FAILED {msg}", file=sys.stderr)


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path) -> int:
    """Set up, measure and report one workload; returns the exit code."""
    workload = wl.name
    # One set-up is a fresh-process import plus input generation, oracle
    # answers and warm-up; the median of several is reported.
    imports, setups = [], []
    for _ in range(SETUP_REPS):
        imports.append(import_seconds(root))
        t = time.perf_counter()
        wl.prepare(seed)
        setups.append(imports[-1] + time.perf_counter() - t)
    setup_s = statistics.median(setups)

    tally = Tally()
    prov = provenance(root, workload, seed)
    print(f"bench: workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"unit={wl.unit}")
    if trace:
        untraced = measure(wl, seconds / 2, tally)
        tracer = Tracer()
        first: dict = {}

        def keep_first_counts(passes: int) -> None:
            if passes == 1:
                first.update(tracer.snapshot())

        with instrument(tracer):
            traced = measure(wl, seconds / 2, tally, keep_first_counts)
        tally.add(*wl.final_check())
        cold = cold_runs(wl, root, tally)
        metrics = per_layer(wl, tracer, first, traced, untraced, statistics.median(imports), cold)
        record = {"pass_seconds": {"untraced": [sum(p) for p in untraced["passes"]],
                                   "traced": [sum(p) for p in traced["passes"]]},
                  "cold_seconds": cold}
        units, samples = PER_LAYER, {}
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = out_dir / f"trace-{workload}-seed{seed}"
        np.savez_compressed(f"{stem}.npz", names=np.array(tracer.names), dropped=tracer.dropped,
                            **tracer.spans())
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"provenance": prov, "per_layer": metrics, "units": PER_LAYER,
                       "traced_passes": len(traced["passes"])}, fh, indent=1)
    else:
        measured = measure(wl, seconds, tally)
        tally.add(*wl.final_check())
        metrics, samples = end_to_end(setup_s, measured)
        record = {"not_gated": not_gated(wl, measured), "pass_seconds": [sum(p) for p in measured["passes"]]}
        units = END_TO_END
    _print_report(wl, metrics, units, samples, record, tally)
    print(json.dumps({"provenance": prov, "samples": samples, **record,
                      "failed_frac": len(tally.failures) / max(1, tally.attempted)}))
    correct = not tally.failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1
