"""Search for graphs with a large (lambda_k + 1)/n limit ratio.

Three strategies: exhaustive search over every graph on up to 9 vertices,
a streaming maximum over externally supplied graph6 lines, and seeded
local search (hill climb or simulated annealing) over edge toggles. All of
them score graphs with one evaluator, `_ratio`, over `spectra.eigenvalues`,
and pick witnesses by one order, `_witness_key`.

The two batched engines are generators of batches that one function,
`_drive`, solves and folds. A batch is the graphs of one solve, in
evaluation order: an array of each graph's order, and a dict from each
order to the edge bits of that order's graphs. `_drive` solves each order's
graphs in one stack, puts the ratios back in batch order, folds them into
the running maximum, history and witness, and self-checks the result. The
exhaustive engine labels nothing at run time: it reads one graph per
isomorphism class on n - 1 vertices from a shipped census, with their
eigenpairs solved once per order, drops each class whose interlacing bound
lies below a ratio some graph on n vertices already reaches, and yields the
extensions of the rest that an inertia test on their eigenpairs cannot rule
out, unlabelled, in single-order batches. The stream engine checks each
line as it is read and yields its checked lines once they fill `_CELLS`
matrix entries.

Determinism: a (seed, config) pair gives byte-identical results within one
build. The generator is numpy's PCG64 behind default_rng. The best ratio
and the improvement history follow the float maximum. The exhaustive and
stream witness is the lexicographically smallest graph6 string among the
graphs whose ratios equal that maximum to 12 decimals: relabelings of one
graph differ by solver noise of about 1e-16, so stacked, serial and
reordered scans agree. The exhaustive search reads its witness off the
tied extensions as given: the smallest of them is already the smallest
graph6 over every labeled graph tied with the maximum (exhaustive_max), and
no graph it prunes can tie.
Local search keeps the first state that reaches the float maximum of its
run.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterable, Iterator

import numpy as np

from . import bounds
from .errors import GraphParseError, InternalConsistencyError
from .graphs import g6_decode, g6_encode_bits, g6_parse, g6_unpack, triu_pair_arrays
from .spectra import eigen_spectrum, eigenpairs, eigenvalues

#: seed used when the caller does not provide one
DEFAULT_SEED = 1729

#: slack for comparisons against the open or recorded thresholds
THRESHOLD_TOL = 1e-9

#: the open threshold at k = 3: no graph is known with a ratio above 1/3
C3_THRESHOLD = 1.0 / 3.0

EXHAUSTIVE_HARD_MAX = 9

#: ratios equal to this many decimals tie for the witness
_TIE_DECIMALS = 12

#: every ratio tied with the maximum lies this close below it
_TIE_WINDOW = 1e-11

#: the inertia filter's threshold lies this far below the floor's lambda_k, and
#: it reads a parent's eigenpairs only if none lies within half of it of the threshold
_INERTIA_MARGIN = 1e-3

#: share of its terms' magnitudes by which the filter's Schur complement must be
#: negative; a solver backward error near 1e-13 moves it by under 1e-9 of them
_SCHUR_TOL = 1e-6

#: float64 entries per working array, 8 MiB: a stream's pending lines, and each block of _blocks:
#: an exhaustive eigensolve stack (12,945 graphs at n = 9), inertia products
_CELLS = 1 << 20

#: consecutive rejections after which a local-search phase restarts
_STALL = 5000


@dataclass(frozen=True)
class SearchConfig:
    """Parameters for local search; defaults follow the documented schedule."""

    k: int
    n: int
    method: str = "anneal"  # "hillclimb" or "anneal"
    seed: int = DEFAULT_SEED
    budget: int = 10_000
    restarts: int = 10
    t0: float = 0.05
    cooling: float = 0.999

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n < self.k:
            raise ValueError("need n >= k so lambda_k exists")
        if self.n > 64:
            raise ValueError("local search is desk-scale: n <= 64")
        if self.method not in ("hillclimb", "anneal"):
            raise ValueError(f"unknown method '{self.method}'")
        if self.budget < 1 or self.restarts < 0:
            raise ValueError("budget must be positive, restarts nonnegative")
        if not (0 < self.cooling <= 1) or not (0 < self.t0 < math.inf):
            raise ValueError("need 0 < cooling <= 1 and a finite t0 > 0")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search: the best ratio seen and its graph6 witness."""

    best_ratio: float
    best_graph: str
    evaluations: int
    k: int
    n: int | None
    seed: int | None
    method: str
    history: tuple[tuple[int, float], ...] = field(default=())

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "method": self.method,
            "seed": self.seed,
            "evaluations": self.evaluations,
            "best_ratio": self.best_ratio,
            "best_graph": self.best_graph,
            "history": [[i, r] for i, r in self.history],
        }


def _ratio(a: np.ndarray, k: int):
    """max(0, (lambda_k + 1)/n) of an adjacency matrix, or of each in a stack."""
    n = a.shape[-1]
    lam = eigenvalues(a, n - k)
    if lam.ndim:
        return np.maximum(0.0, (lam + 1.0) / n)
    return max(0.0, (float(lam) + 1.0) / n)


def _witness_key(ratio: float, label: str) -> tuple:
    """Witness order: the higher ratio to 12 decimals first, then the smaller graph6 label.

    Python's round is used for numpy scalars too; numpy's own may differ.
    """
    return (-round(float(ratio), _TIE_DECIMALS), label)


def _adjacency_stack(bits: np.ndarray, n: int) -> np.ndarray:
    """Adjacency stack of rows of graph6 edge bits, lower triangle only: all that eigenvalues reads."""
    a = np.zeros((len(bits), n, n))
    a[:, np.tri(n, n, -1, dtype=bool)] = bits
    return a


def _drive(k: int, batches: Iterable[tuple[np.ndarray, dict[int, np.ndarray]]],
           n: int | None, method: str) -> SearchResult:
    """Solve and fold batches into one self-checked result, in evaluation order.

    Each batch is (orders, stacks): each graph's order, and for each order
    the edge bits of its graphs. The history lists the strict improvements of
    the float maximum. The witness is the smallest graph6, as given, among
    the graphs tied with the maximum to 12 decimals, whichever batches they
    were in: a batch whose maximum can reach the running witness key folds in
    the best key of each order's rows within _TIE_WINDOW of that maximum
    (_tied_key), so only the key is held between batches.
    """
    best, tie, evaluations, history = -math.inf, (math.inf, ""), 0, []
    for orders, stacks in batches:
        ratios, solved = np.empty(len(orders)), []
        for order, bits in stacks.items():
            r = _ratio(_adjacency_stack(bits, order), k)
            ratios[orders == order] = r
            solved.append((order, bits, r))
        earlier = np.maximum.accumulate(np.concatenate([[best], ratios[:-1]]))
        history += [(evaluations + int(i) + 1, float(ratios[i]))
                    for i in np.flatnonzero(ratios > earlier)]
        top = ratios.max()
        best = max(best, float(top))
        if _witness_key(top, "") <= tie:
            tie = min([tie] + [_tied_key(order, bits, r, top) for order, bits, r in solved])
        evaluations += len(ratios)
    return _self_check(SearchResult(
        best_ratio=best, best_graph=tie[1], evaluations=evaluations,
        k=k, n=n, seed=None, method=method, history=tuple(history)))


def _tied_key(order: int, bits: np.ndarray, ratios: np.ndarray, top: float) -> tuple:
    """The smallest witness key among one order's rows within _TIE_WINDOW of top.

    For one order, graph6 order is the lexicographic order of the bit rows,
    so only the smallest row among those with the best 12-decimal key is encoded.
    """
    near = np.flatnonzero(ratios >= top - _TIE_WINDOW)
    if not len(near):
        return (math.inf, "")
    keys = np.array([round(r, _TIE_DECIMALS) for r in ratios[near].tolist()])
    tied = bits[near[keys == keys.max()]]
    first = np.lexsort(tied.T[::-1])[0] if tied.shape[1] else 0  # no edge bits on 1 vertex
    return _witness_key(keys.max(), g6_encode_bits(order, tied[first]))


def _self_check(result: SearchResult) -> SearchResult:
    """Recompute the witness ratio and enforce the proven ceiling."""
    again = _ratio(g6_decode(result.best_graph).matrix(), result.k)
    if abs(again - result.best_ratio) > 1e-12:
        raise InternalConsistencyError(
            f"witness ratio drifted: stored {result.best_ratio}, recomputed {again}"
        )
    bounds.check_ceiling(result.best_ratio, result.k, f"search witness {result.best_graph}")
    return result


def _threshold(k: int) -> float | None:
    """The open 1/3 at k = 3, the recorded ratio for table rows, else None."""
    if k == 3:
        return C3_THRESHOLD
    # read through the module, so a patched bounds.best_known_ratio is seen
    best = bounds.best_known_ratio(k)
    return float(best) if best is not None else None


def exceedance(result: SearchResult) -> tuple[dict, dict | None]:
    """Judge a result against its threshold.

    Returns the result's JSON with "threshold" and "exceeded" added, and,
    when the ratio beats the threshold by more than THRESHOLD_TOL, the
    witness block {"result": that JSON, "spectrum": the witness's numeric
    spectrum}; otherwise None.
    """
    threshold = _threshold(result.k)
    payload = result.to_json_obj()
    payload["threshold"] = threshold
    payload["exceeded"] = threshold is not None and result.best_ratio > threshold + THRESHOLD_TOL
    if not payload["exceeded"]:
        return payload, None
    spectrum = eigen_spectrum(g6_decode(result.best_graph)).to_json_obj()
    return payload, {"result": payload, "spectrum": spectrum}


# -- exhaustive enumeration ------------------------------------------------------


@lru_cache(maxsize=EXHAUSTIVE_HARD_MAX)
def _census(j: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """One graph per isomorphism class on j <= 8 vertices, as rows of edge bits in
    label order; their eigenpairs; and the neighbourhood bits (2^j, j).

    The classes come from census.npy: the smallest label over all relabelings
    of each class on 1..8 vertices (OEIS A000088: 1, 2, 4, 11, 34, 156, 1,044
    and 12,346), increasing within each order, the orders in turn. Each order
    opens with its empty graph, label 0; on 0 vertices the one graph is empty.
    The eigenpairs are solved here, once per order and process, as one stack.
    Bit row N holds value N with vertex i at bit j-1-i.
    """
    with resources.files(__package__).joinpath("census.npy").open("rb") as f:
        census = np.load(f)
    labels = np.split(census, np.flatnonzero(census == 0))[j] if j else np.zeros(1, dtype=census.dtype)
    graphs = _label_bits(labels, j * (j - 1) // 2)
    mu, u = eigenpairs(_adjacency_stack(graphs, j))
    hoods = _label_bits(np.arange(1 << j), j)
    for a in (graphs, mu, u, hoods):
        a.setflags(write=False)  # every caller shares the cached arrays
    return graphs, (mu, u), hoods


def _blocks(rows: np.ndarray, width: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, block) over rows that take width entries each: every block
    holds at most _CELLS entries, or one row."""
    step = max(1, _CELLS // width)
    for s in range(0, len(rows), step):
        yield s, rows[s : s + step]


def _label_bits(labels: np.ndarray, m: int) -> np.ndarray:
    """Edge bits in graph6 order of each label; bit 0 is the most significant."""
    return ((labels[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)


def _may_exceed(mu: np.ndarray, u: np.ndarray, k: int, tau: float, hoods: np.ndarray) -> np.ndarray:
    """Mask of the one-vertex extensions G = H + N of graphs H on j vertices, given
    their eigenpairs, whose lambda_k may exceed tau, shape (graphs, 2^j): every
    extension it leaves out has lambda_k(G) <= tau. Row N of hoods is N's bits.

    Row i of mu holds H_i's ascending eigenvalues and the columns of u[i] its
    unit eigenvectors; entry (i, N) is the extension by neighbourhood N, with
    vertex v at bit j-1-v. For eigenpairs (mu_i, u_i) of A_H with no mu_i equal
    to tau, Haynsworth's inertia additivity (Linear Algebra Appl. 1, 1968) on
    the bordered matrix A_G - tau I gives n+(A_G - tau I) = n+(A_H - tau I) +
    [s > 0], with the Schur complement s = -tau - sum_i (u_i . x)^2 / (mu_i -
    tau), Golub's secular function (SIAM Review 15, 1973). lambda_k(G) > tau
    exactly when n+(A_G - tau I) >= k, so when H has k - 1 eigenvalues above
    tau, its eigenpairs decide all its extensions. An extension is left out
    only when every |mu_i - tau| exceeds _INERTIA_MARGIN / 2 and s < 0 by more
    than _SCHUR_TOL times the sum of |tau| and the terms' magnitudes: a
    backward error E of the solve moves s by at most about |E| / min |mu_i -
    tau| times that sum.
    """
    j = mu.shape[1]
    gap = mu - tau
    sure = np.flatnonzero(((gap > 0).sum(axis=1) == k - 1) & (np.abs(gap) > _INERTIA_MARGIN / 2).all(axis=1))
    keep = np.ones((len(mu), 1 << j), dtype=bool)
    # blocks of sure parents, so the j products of each of their 2^j extensions fit in _CELLS
    for _, rows in _blocks(sure, (j + 1) << j):
        inv, squares = 1.0 / gap[rows, :, None], (hoods @ u[rows]) ** 2
        # s is -tau - squares @ inv, and squares @ |inv| sums its terms' magnitudes
        keep[rows] = ~(-tau - squares @ inv < -_SCHUR_TOL * (abs(tau) + squares @ np.abs(inv)))[..., 0]
    return keep


def exhaustive_max(k: int, n: int) -> SearchResult:
    """Maximum limit ratio over every graph on n vertices, n <= 9.

    Deleting the last vertex of any graph on n vertices leaves a graph on
    n - 1, so the one-vertex extensions of one graph per class on n - 1
    vertices cover every isomorphism class on n. The classes and their
    eigenpairs come from the census (_census), solved once per order. The
    floor F is a ratio some graph on n vertices reaches: first floor(n/k)/n,
    from k disjoint cliques on floor(n/k) vertices plus isolated vertices,
    then the best ratio of a class plus one isolated vertex. A class H is
    dropped when (lambda_{k-1}(H) + 1)/n lies below F by more than
    _TIE_WINDOW: every extension G of H has lambda_k(G) <= lambda_{k-1}(H)
    by interlacing, so none can tie with the maximum. At k = 1, lambda_0 is
    +inf and nothing is dropped. The eigenpairs of the classes left decide
    by inertia (_may_exceed) which of their 2^(n-1) extensions can have
    lambda_k above tau = (F - _TIE_WINDOW) n - 1 - _INERTIA_MARGIN, and only
    those are solved, in batches, without labelling and duplicates included:
    2 at (3, 6) and 385 at (3, 8), against 1,088 and 133,632 unpruned.
    With the order's census stack, solved on its first use in a process, and
    the witness's self-check, (3, 6) solves 37 matrices and (3, 8) 1,430;
    later calls solve 3 and 386. Every (k, 9) takes 0.1-1.1 s in a fresh
    process on one BLAS thread, (6, 9) the slowest with 130,450 solves.
    Every graph tied with the maximum survives the floor and the filter.

    The witness is the smallest graph6 among the tied extensions as given,
    and that is the smallest over all labeled graphs tied with the maximum.
    graph6 puts the last vertex's pairs last, so a label on n vertices is
    c 2^(n-1) + N, where c is the label of the graph H that the first n - 1
    vertices induce and N is the last vertex's neighbourhood. In the smallest
    labelling of a tied graph, c is the smallest label of H's class, or a
    relabeling of the first n - 1 vertices would lower it: H is a census
    entry as given, it survives the floor, and H + N is a solved row. This
    takes isomorphic copies to share the 12-decimal tie key, as the module's
    witness rule does.

    The history lists the strict improvements among the solved extensions;
    their distinct values at or above the floor agree with those of the
    unpruned run over every extension to 12 decimals.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError("need n >= k so lambda_k exists")
    if n > EXHAUSTIVE_HARD_MAX:
        raise ValueError(f"exhaustive search is capped at n = {EXHAUSTIVE_HARD_MAX}")
    classes, (mu, u), hoods = _census(n - 1)
    padded = np.sort(np.hstack([mu, np.zeros((len(mu), 1))]), axis=1)
    floor = max((n // k) / n, (float(padded[:, n - k].max()) + 1.0) / n)
    lam = mu[:, n - k] if k > 1 else np.full(len(mu), np.inf)  # lambda_0 is +inf
    keep = (lam + 1.0) / n >= floor - _TIE_WINDOW
    tau = (floor - _TIE_WINDOW) * n - 1.0 - _INERTIA_MARGIN
    parent, hood = np.nonzero(_may_exceed(mu[keep], u[keep], k, tau, hoods))
    graphs = np.hstack([classes[keep][parent], hoods[hood]])
    batches = ((np.full(len(bits), n), {n: bits}) for _, bits in _blocks(graphs, n * n))
    return _drive(k, batches, n, "exhaustive")


# -- streaming maximum -------------------------------------------------------------


def stream_max(k: int, lines: Iterable[str], on_error: str = "raise") -> SearchResult:
    """Maximum limit ratio over a stream of graph6 lines.

    Each line is checked by g6_parse as it is read, and the lines its line
    rule finds blank are skipped. Malformed lines, graphs with fewer than k
    vertices and orders above the dense ceiling raise GraphParseError tagged
    with the line number, or are counted and skipped with on_error='skip'.
    Checked lines wait as payload bytes until they fill _CELLS matrix
    entries or the stream ends; then each order's lines are solved in one
    stack, and a solver failure surfaces there. The result equals that of
    one solve per line. An empty stream (no usable graphs) is an error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    return _drive(k, _stream_batches(k, lines, on_error), None, "stream")


def _stream_batches(k: int, lines: Iterable[str], on_error: str) -> Iterator[tuple[np.ndarray, dict]]:
    """Batches of checked stream lines, each yielded once it fills _CELLS matrix entries."""
    orders: list[int] = []
    pending: defaultdict[int, list[bytes]] = defaultdict(list)
    cells = skipped = 0
    solved = False

    def batch():
        return np.array(orders), {n: g6_unpack(b"".join(p), n, len(p)) for n, p in pending.items()}

    for lineno, line in enumerate(lines, start=1):
        try:
            parsed = g6_parse(line)
            if parsed is None:
                continue
            n, payload = parsed
            if n < k:
                raise GraphParseError(f"graph has n={n} < k={k}")
        except (GraphParseError, ValueError) as e:
            if on_error == "skip":
                skipped += 1
                continue
            raise GraphParseError(f"line {lineno}: {e}") from None
        orders.append(n)
        pending[n].append(payload)
        cells += n * n
        if cells >= _CELLS:
            yield batch()
            orders, pending, cells, solved = [], defaultdict(list), 0, True
    if orders:
        yield batch()
    elif not solved:
        raise ValueError(f"empty stream: no usable graphs ({skipped} skipped)")


# -- local search --------------------------------------------------------------------


def local_search(cfg: SearchConfig) -> SearchResult:
    """Seeded hill climb or simulated annealing over single edge toggles.

    Each phase starts from a fresh random graph. Annealing accepts a
    worsening move of size delta < 0 with probability exp(delta/T), cooling
    geometrically on every acceptance; the hill climb accepts only strict
    improvements. A phase restarts after _STALL consecutive rejections,
    up to cfg.restarts extra phases, within a total evaluation budget. The
    result is never below the best initial state encountered.
    """
    n, k, m = cfg.n, cfg.k, cfg.n * (cfg.n - 1) // 2
    ii, jj = triu_pair_arrays(n)
    rng = np.random.default_rng(cfg.seed)
    anneal = cfg.method == "anneal"

    evaluations = 0
    best_ratio = -math.inf
    best: np.ndarray | None = None
    history: list[tuple[int, float]] = []

    for _phase in range(cfg.restarts + 1 if m else 1):
        if evaluations >= cfg.budget:
            break
        # the state is the adjacency matrix's lower triangle; a move toggles one pair in place
        a = np.zeros((n, n))
        a[jj, ii] = rng.random(m) < 0.5
        current = _ratio(a, k)
        evaluations += 1
        if current > best_ratio:
            best_ratio, best = current, a.copy()
            history.append((evaluations, current))
        temp = cfg.t0
        rejections = 0
        while m and evaluations < cfg.budget and rejections < _STALL:
            e = int(rng.integers(m))
            i, j = ii[e], jj[e]
            a[j, i] = 1.0 - a[j, i]
            value = _ratio(a, k)
            evaluations += 1
            delta = value - current
            if delta > 0 or (anneal and rng.random() < math.exp(delta / temp)):
                current = value
                rejections = 0
                if anneal:
                    temp *= cfg.cooling
                if value > best_ratio:
                    best_ratio, best = value, a.copy()
                    history.append((evaluations, value))
            else:
                a[j, i] = 1.0 - a[j, i]
                rejections += 1

    assert best is not None
    witness = g6_encode_bits(n, best[jj, ii].astype(np.uint8))
    result = SearchResult(best_ratio=best_ratio, best_graph=witness, evaluations=evaluations,
                          k=k, n=n, seed=cfg.seed, method=cfg.method, history=tuple(history))
    return _self_check(result)
