"""The benchmark workloads.

Each workload builds its inputs and oracle answers from the seed in
`prepare`, runs one pass of work in `run_pass` and checks every answer, and
names one small command for the fresh-process CLI timing. Calls go through
the package's modules at call time (`search.exhaustive_max`, `cli.main`),
so a traced run sees them.

Why these workloads: each roadmap optimisation should do most of its work
in one of them and almost none in another.
- exhaustive: batched eigensolves and edge-mask to matrix construction only;
  isomorph-free generation shows here and nowhere else.
- stream: per-line Python around a tiny solve (decode, Graph validation,
  Spectrum, re-encode); relabelings and repeats give a cache something to find.
- anneal: a tight loop of single tiny eigensolves and RNG calls, no codec or
  descriptors; two orders so a change that helps n=12 cannot hide a loss at
  n=30.
- certify: CLI commands in-process; descriptor validation, certify's
  re-solve, exact arithmetic, dense family construction and single large
  eigensolves (100..1200 vertices).
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

import blowup.cli as cli
import blowup.search as search

from . import oracles as O
from .inputs import atlas_max, stream_input


@dataclass
class PassResult:
    """One pass. Every pass of a run does the same operations in the same order."""

    op_seconds: list[float]  # one entry per timed operation
    units: int               # work completed: graphs, evaluations or commands
    failures: list[str] = field(default_factory=list)


def verdict(check, *args) -> list[str]:
    """Run one oracle check; any exception is a failure message, not a crash."""
    try:
        check(*args)
    except Exception as e:  # noqa: BLE001 - a malformed answer must count, not abort
        return [f"{type(e).__name__}: {e}"]
    return []


class Workload:
    name = ""
    unit = ""
    #: the planned names of the generic metrics on this workload, for display
    aliases: dict[str, str] = {}

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def cold_command(self) -> tuple[list[str], str | None]:
        """CLI arguments and stdin text for the fresh-process timing."""
        raise NotImplementedError

    def check_cold(self, rc: int, stdout: str) -> None:
        raise NotImplementedError

    def final_check(self) -> tuple[int, list[str]]:
        """Checks run once after the timed passes, untimed: (operations, failure messages)."""
        return 0, []

    def layer_counts(self, traced: dict) -> dict[str, float]:
        """Workload-specific per-layer counts, from the first traced pass."""
        return {}

    def extra_figures(self, best: list[float]) -> dict[str, float]:
        """Workload-specific figures, reported but not gated, from each operation's best time."""
        return {}


def _search_json(rc: int, stdout: str) -> dict:
    O.expect(rc == cli.EXIT_OK, f"exit code {rc}, expected {cli.EXIT_OK}")
    return json.loads(stdout)


# -- exhaustive ---------------------------------------------------------------------


class Exhaustive(Workload):
    name = "exhaustive"
    unit = "graphs"
    aliases = {"work_per_s": "labeled graphs/s", "op_best_ms": "exhaustive_s (x1000)"}

    def __init__(self, k: int = 3, n: int = 6, cold_n: int = 5):
        self.k, self.n, self.cold_n = k, n, cold_n

    def prepare(self, seed: int) -> None:
        # The input is fixed by (k, n); the seed is not used.
        self.want, self.classes = atlas_max(self.n, self.k)
        self.cold_want, _ = atlas_max(self.cold_n, self.k)
        search.exhaustive_max(self.k, self.cold_n)

    def run_pass(self) -> PassResult:
        t = time.perf_counter()
        r = search.exhaustive_max(self.k, self.n)
        dt = time.perf_counter() - t
        self.evaluations = r.evaluations
        # The work is the labeled graphs covered, however many the program evaluates.
        labeled = 1 << (self.n * (self.n - 1) // 2)
        return PassResult([dt], labeled,
                          verdict(O.check_exhaustive, r.to_json_obj(), self.k, self.want, labeled, self.n))

    def cold_command(self):
        return ["search", "--method", "exhaustive", "--k", str(self.k), "--n", str(self.cold_n), "--json"], None

    def check_cold(self, rc, stdout):
        labeled = 1 << (self.cold_n * (self.cold_n - 1) // 2)
        O.check_exhaustive(_search_json(rc, stdout), self.k, self.cold_want, labeled, self.cold_n)

    def layer_counts(self, traced):
        return {"search.exhaustive_max.evaluations": self.evaluations,
                "search.exhaustive.evals_per_class": self.evaluations / self.classes}


# -- stream -------------------------------------------------------------------------


class Stream(Workload):
    name = "stream"
    unit = "graphs"
    aliases = {"work_per_s": "stream_graphs_per_s"}

    def __init__(self, streams: int = 100, lines: int = 100, k: int = 3, cold_lines: int = 1000):
        self.streams, self.lines, self.k, self.cold_lines = streams, lines, k, cold_lines

    def prepare(self, seed: int) -> None:
        # Many short streams, each timed on its own: the best of many short
        # repetitions resists the host's slow spells better than a few long ones.
        # Each stream is generated on its own, so its relabelings and repeats
        # are of its own earlier lines.
        self.inputs = [stream_input((seed, i), self.lines, self.k) for i in range(self.streams)]
        # The fresh-process command reads the first streams joined, headers and all.
        self.cold_text = [line for data in self.inputs for line in data.text][: self.cold_lines]
        head = [r for data in self.inputs for r in data.ratios][: self.cold_lines]
        self.cold_graphs = sum(r is not None for r in head)
        self.cold_want = max(r for r in head if r is not None)
        search.stream_max(self.k, self.inputs[0].text)

    def run_pass(self) -> PassResult:
        times, failures, self.evaluations = [], [], 0
        for data in self.inputs:
            t = time.perf_counter()
            r = search.stream_max(self.k, data.text)
            times.append(time.perf_counter() - t)
            self.evaluations += r.evaluations
            failures += verdict(O.check_search, r.to_json_obj(), self.k, data.best, data.graph_lines, None)
        return PassResult(times, sum(data.graph_lines for data in self.inputs), failures)

    def cold_command(self):
        stdin = "\n".join(self.cold_text) + "\n"
        return ["search", "--method", "stream", "--k", str(self.k), "--g6-file", "-", "--json"], stdin

    def check_cold(self, rc, stdout):
        O.check_search(_search_json(rc, stdout), self.k, self.cold_want, self.cold_graphs, None)

    def layer_counts(self, traced):
        # each stream_max call is separate, so classes are counted per stream and summed
        solves = traced.get("search.stream_max.solves_within", 0)
        return {"search.stream_max.evaluations": self.evaluations,
                "search.stream.eigensolves_per_distinct": solves / sum(d.distinct for d in self.inputs)}


# -- anneal -------------------------------------------------------------------------


class Anneal(Workload):
    """Timed short anneals, plus one untimed full-budget run checked against its floor.

    A pass is several short anneals from seeds derived from the workload
    seed: one trajectory's acceptance pattern moves its speed by up to a
    tenth, and averaging several keeps that from reading as a change.
    """

    unit = "evaluations"

    def __init__(self, name: str, k: int, n: int, runs: int, budget: int,
                 check_budget: int, check_restarts: int, floor: float | None, cold_budget: int = 2000):
        self.name, self.k, self.n = name, k, n
        self.runs, self.budget = runs, budget
        self.check_budget, self.check_restarts, self.floor = check_budget, check_restarts, floor
        self.cold_budget = cold_budget
        self.aliases = {"work_per_s": f"anneal_n{n}_evals_per_s"}

    def _config(self, seed: int, budget: int, restarts: int):
        return search.SearchConfig(k=self.k, n=self.n, method="anneal", seed=seed,
                                   budget=budget, restarts=restarts)

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.cfgs = [self._config(seed * self.runs + i, self.budget, 0) for i in range(self.runs)]
        self.cold_want = search.local_search(self._config(seed, self.cold_budget, 1)).to_json_obj()
        self.reference: list[dict] = []

    def check(self, obj: dict, budget: int) -> None:
        O.expect(0 < obj["evaluations"] <= budget, f"evaluations {obj['evaluations']} outside the budget")
        O.check_witness(obj, self.k, self.n)

    def check_repeat(self, index: int, obj: dict) -> None:
        if len(self.reference) == index:
            self.reference.append(obj)
        O.expect(obj == self.reference[index], "seeded anneal differs from the first run of this invocation")
        self.check(obj, self.budget)

    def run_pass(self) -> PassResult:
        times, failures, self.evaluations = [], [], 0
        for index, cfg in enumerate(self.cfgs):
            t = time.perf_counter()
            r = search.local_search(cfg)
            times.append(time.perf_counter() - t)
            self.evaluations += r.evaluations
            failures += verdict(self.check_repeat, index, r.to_json_obj())
        return PassResult(times, self.evaluations, failures)

    def check_floor(self, obj: dict) -> None:
        self.check(obj, self.check_budget)
        if self.floor is not None:
            O.expect(obj["best_ratio"] >= self.floor - O.THRESHOLD_TOL,
                     f"ratio {obj['best_ratio']} below the floor {self.floor}")

    def final_check(self) -> tuple[int, list[str]]:
        r = search.local_search(self._config(self.seed, self.check_budget, self.check_restarts))
        return 1, verdict(self.check_floor, r.to_json_obj())

    def cold_command(self):
        return ["search", "--method", "anneal", "--k", str(self.k), "--n", str(self.n),
                "--seed", str(self.seed), "--budget", str(self.cold_budget), "--restarts", "1", "--json"], None

    def check_cold(self, rc, stdout):
        got = _search_json(rc, stdout)
        for key, want in self.cold_want.items():
            O.expect(got[key] == want, f"fresh-process {key} differs from the in-process run")

    def layer_counts(self, traced):
        return {"search.local_search.evaluations": self.evaluations}


class AnnealOrders(Workload):
    """Anneals at several orders in one workload; a pass runs each order's pass in turn.

    The gated throughput is over all of them together; each order's own
    rate is reported beside it, and the traced run splits the eigensolves
    by order.
    """

    name = "anneal"
    unit = "evaluations"

    def __init__(self, parts: list[Anneal]):
        self.parts = parts
        self.aliases = {"work_per_s": " + ".join(p.aliases["work_per_s"] for p in parts)}

    def prepare(self, seed: int) -> None:
        for part in self.parts:
            part.prepare(seed)

    def run_pass(self) -> PassResult:
        results = [part.run_pass() for part in self.parts]
        return PassResult([t for r in results for t in r.op_seconds], sum(r.units for r in results),
                          [f for r in results for f in r.failures])

    def final_check(self) -> tuple[int, list[str]]:
        checks = [part.final_check() for part in self.parts]
        return sum(c[0] for c in checks), [f for c in checks for f in c[1]]

    def cold_command(self):
        return self.parts[0].cold_command()

    def check_cold(self, rc, stdout):
        self.parts[0].check_cold(rc, stdout)

    def layer_counts(self, traced):
        return {"search.local_search.evaluations": sum(part.evaluations for part in self.parts)}

    def extra_figures(self, best):
        figures, start = {}, 0
        for part in self.parts:
            figures[part.aliases["work_per_s"]] = part.evaluations / sum(best[start:start + part.runs])
            start += part.runs
        return figures


# -- certify ------------------------------------------------------------------------

JOHNSON_M = range(6, 41)
PALEY_Q = (5, 9, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113, 137, 149, 157, 173, 181, 193, 197)
# Only parameters of graphs known to exist: the table's three, Clebsch, Schlaefli.
SRG_PARAMS = ((57, 24, 11, 9), (125, 72, 45, 36), (243, 132, 81, 60), (16, 5, 0, 2), (27, 16, 10, 8))
DRG_ARRAYS = {"drg:3,2;1,1": "petersen", "drg:5,2,1;1,2,5": "icosahedron", "drg:27,10,1;1,10,27": "gosset"}
# Explicit closed blowups of about 500 to 1200 vertices; these set the 90th percentile.
# One reaches 1200: each 1200-vertex solve costs about a tenth of a pass, and
# fewer of them leave room for more passes, so more repetitions of each command.
EXPLICIT_BLOWUPS = (("johnson:16,2", 10), ("paley:101", 6), ("petersen", 60), ("icosahedron", 50),
                    ("johnson:12,2", 8), ("paley:61", 10), ("petersen", 50), ("johnson:20,2", 3))
SPECTRUM_LEVEL_BLOWUPS = (("srg:57,24,11,9", 4), ("srg:243,132,81,60", 3), ("gosset", 7))
UNIONS = ("petersen+icosahedron", "johnson:8,2+paley:13", "srg:16,5,0,2+petersen", "gosset+icosahedron",
          "paley:13+paley:17", "johnson:7,2+gosset", "icosahedron+srg:27,16,10,8", "petersen+petersen",
          "johnson:10,2+icosahedron", "paley:29+srg:16,5,0,2")
COMPLEMENTS = ("petersen", "icosahedron", "johnson:9,2", "johnson:14,2", "paley:29", "paley:53")
TABLE_ROWS = (1, 5, 10, 21)  # row counts of the table commands; the seed picks where they start
K_MAX = 30


def spectrum_of(expr: str) -> tuple[list[tuple[float, int]], bool]:
    """Closed-form spectrum of a grammar expression, and whether the program's is exact."""
    if expr in O.NAMED_SPECTRA:
        return O.NAMED_SPECTRA[expr], True
    if expr in DRG_ARRAYS:
        return O.NAMED_SPECTRA[DRG_ARRAYS[expr]], True
    head, _, rest = expr.partition(":")
    if head == "johnson":
        m, r = map(int, rest.split(","))
        O.expect(r == 2, "only johnson r=2 has a closed form here")
        return O.johnson2_spectrum(m), True
    if head == "paley":
        return O.paley_spectrum(int(rest)), True
    if head == "srg":
        return O.srg_spectrum(*map(int, rest.split(","))), True
    if head == "blowup":
        base, _, t = rest.rpartition(",")
        spec, exact = spectrum_of(base)
        return O.blowup_spectrum(spec, int(t)), exact
    if head == "union":
        a, _, b = rest.rpartition("+")
        (sa, ea), (sb, eb) = spectrum_of(a), spectrum_of(b)
        return sa + sb, ea and eb
    if head == "complement":
        return O.regular_complement(spectrum_of(rest)[0]), False
    raise ValueError(f"no closed form for {expr}")


@dataclass
class Command:
    argv: list[str]
    check: object  # callable(rc, stdout) raising on a wrong answer


def _bound(expr: str, k: int) -> Command:
    spec, exact = spectrum_of(expr)

    def check(rc, stdout):
        O.expect(rc == cli.EXIT_OK, f"exit code {rc}")
        O.check_bound_json(json.loads(stdout), k, spec, exact)

    return Command(["bound", expr, "--k", str(k), "--json"], check)


def _spectrum(expr: str) -> Command:
    spec, exact = spectrum_of(expr)
    n = sum(mult for _, mult in spec)

    def check(rc, stdout):
        O.expect(rc == cli.EXIT_OK, f"exit code {rc}")
        obj = json.loads(stdout)
        O.expect(obj["n"] == n, f"n={obj['n']}, expected {n}")
        O.check_spectrum_json(obj["spectrum"], spec, O.RATIO_TOL if exact else O.NUMERIC_TOL)

    return Command(["spectrum", expr, "--json"], check)


def check_table(lo: int, hi: int, rc: int, stdout: str) -> None:
    """Every row certificate equals the closed form of its own base."""
    O.expect(rc == cli.EXIT_OK, f"exit code {rc}")
    obj = json.loads(stdout)
    O.expect(obj["ok"] is True, "table reports ok=false")
    O.expect([r["k"] for r in obj["rows"]] == list(range(lo, hi + 1)), "wrong table rows")
    for row in obj["rows"]:
        want = O.quadratic_value(row["expected"])
        close_to_print = abs(want - float(row["printed"])) <= 10.0 ** -len(row["printed"].partition(".")[2])
        O.expect(close_to_print, f"row {row['k']}: {row['expected']} does not round to {row['printed']}")
        for cert in row["certificates"]:
            name = cert["descriptor"]["name"]
            spec = spectrum_of(name)[0]
            n = sum(mult for _, mult in spec)
            ratio, _ = O.limit_ratio(O.kth(spec, row["k"]), n)
            O.close(ratio, want, O.RATIO_TOL, f"row {row['k']} from {name}")
            O.close(cert["ratio"]["float"], want, O.RATIO_TOL, f"row {row['k']} certificate {name}")


def _table(lo: int, hi: int) -> Command:
    return Command(["table", "--range", f"{lo}..{hi}", "--json"], lambda rc, out: check_table(lo, hi, rc, out))


def certify_commands(seed: int, scale: float = 1.0) -> list[Command]:
    """The seeded command list of one certify pass (about 140 commands at scale 1).

    The expressions are the same for every seed, so every seed does about
    the same work; the seed picks each k, where each table range starts, and
    the order.
    """
    rng = np.random.default_rng(seed)
    stride = max(1, round(1 / scale))

    def pick_k(expr: str) -> int:
        n = sum(mult for _, mult in spectrum_of(expr)[0])
        return int(rng.integers(1, min(n, K_MAX) + 1))

    exprs = ([f"johnson:{m},2" for m in JOHNSON_M] + [f"paley:{q}" for q in PALEY_Q]
             + ["petersen", "icosahedron", "gosset", *DRG_ARRAYS]
             + [f"srg:{v},{k},{l},{m}" for v, k, l, m in SRG_PARAMS]
             + [f"blowup:{b},{t}" for b, t in SPECTRUM_LEVEL_BLOWUPS]
             + [f"complement:{b}" for b in COMPLEMENTS])[::stride]
    unions = [f"union:{pair}" for pair in UNIONS[::stride]]
    commands = [_bound(e, pick_k(e)) for e in exprs + unions]
    commands += [_spectrum(e) for e in exprs[::2]]
    if stride == 1:
        big = [f"blowup:{b},{t}" for b, t in EXPLICIT_BLOWUPS]
        commands += [_bound(e, _blowup_k(rng, e)) for e in big]
    for rows in TABLE_ROWS[::stride]:
        lo = int(rng.integers(4, 25 - rows + 1))
        commands.append(_table(lo, lo + rows - 1))
    order = rng.permutation(len(commands))
    return [commands[i] for i in order]


def _blowup_k(rng: np.random.Generator, expr: str) -> int:
    """A k whose base eigenvalue exceeds -1, so the blowup's limit equals the base's."""
    base = expr[len("blowup:"):].rpartition(",")[0]
    spec, _ = spectrum_of(base)
    usable = int(np.sum(O.expand(spec) > -1.0 + O.THRESHOLD_TOL))
    return int(rng.integers(1, min(usable, K_MAX) + 1))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, with its output captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Certify(Workload):
    name = "certify"
    unit = "commands"
    aliases = {"work_per_s": "certify_cmds_per_s", "op_best_ms": "certify_cmd_p50_ms",
               "op_best_p90_ms": "certify_cmd_p95_ms"}

    def __init__(self, scale: float = 1.0, warm_order: int = 1200):
        self.scale, self.warm_order = scale, warm_order

    def prepare(self, seed: int) -> None:
        self.commands = certify_commands(seed, self.scale)
        self.verified: dict[tuple, str] = {}
        # The first large solve pays one-time LAPACK set-up; keep it out of the timings.
        a = np.random.default_rng(seed).random((self.warm_order, self.warm_order))
        np.linalg.eigvalsh(a + a.T)
        run_cli(["bound", "johnson:10,2", "--k", "3", "--json"])

    def run_pass(self) -> PassResult:
        times, failures = [], []
        for cmd in self.commands:
            t = time.perf_counter()
            try:
                rc, out = run_cli(cmd.argv)
            except Exception as e:  # noqa: BLE001 - a crashing command is a counted failure
                times.append(time.perf_counter() - t)
                failures.append(f"{' '.join(cmd.argv)}: {type(e).__name__}: {e}")
                continue
            times.append(time.perf_counter() - t)
            key = tuple(cmd.argv)
            if self.verified.get(key) == out:
                continue  # byte-identical to an answer already checked
            found = verdict(cmd.check, rc, out)
            failures += [f"{' '.join(cmd.argv)}: {f}" for f in found]
            if not found:
                self.verified[key] = out
        return PassResult(times, len(times), failures)

    def cold_command(self):
        return ["table", "--json"], None

    def check_cold(self, rc, stdout):
        check_table(4, 24, rc, stdout)


def make_workloads(tiny: bool = False) -> dict[str, Workload]:
    """All workloads by name; tiny sizes are for the benchmark's own tests."""
    if tiny:
        wls = [Exhaustive(n=5, cold_n=4), Stream(streams=3, lines=50, cold_lines=120),
               AnnealOrders([Anneal("anneal-n12", 4, 12, 2, 250, 500, 1, None, cold_budget=100),
                             Anneal("anneal-n30", 3, 30, 2, 150, 300, 1, None, cold_budget=100)]),
               Certify(scale=0.2, warm_order=50)]
    else:
        wls = [Exhaustive(), Stream(),
               AnnealOrders([Anneal("anneal-n12", 4, 12, 16, 1250, 100_000, 20, floor=0.25),
                             Anneal("anneal-n30", 3, 30, 16, 500, 30_000, 10, floor=None)]),
               Certify()]
    return {w.name: w for w in wls}
