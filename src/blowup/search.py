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
exhaustive engine builds one graph per isomorphism class in one level loop
from the graph on 1 vertex: each level extends the classes of the last once
per automorphism orbit of new neighbourhoods, leaves out the extensions
that an inertia test on their parent's eigenpairs rules out, labels and
dedupes the rest, and solves the new classes for their eigenpairs once,
dropping each class whose interlacing bound lies below a ratio some graph
on n vertices already reaches. The extensions of the classes left one
vertex short that pass the same two tests are yielded, unlabelled, in
single-order batches. The stream engine checks each line as it is read and
yields its checked lines once they fill `_CELLS` matrix entries.

Determinism: a (seed, config) pair gives byte-identical results within one
build. The generator is numpy's PCG64 behind default_rng. The best ratio
and the improvement history follow the float maximum. The exhaustive and
stream witness is the lexicographically smallest graph6 string among the
graphs whose ratios equal that maximum to 12 decimals: relabelings of one
graph differ by solver noise of about 1e-16, so stacked, serial and
reordered scans agree. The exhaustive search solves one labeling per
extension and reads its witness off the tied extensions as given: the
smallest of them is already the smallest graph6 over every labeled graph
tied with the maximum (exhaustive_max), and no graph it prunes can tie.
Local search keeps the first state that reaches the float maximum of its
run.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
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
#: an exhaustive eigensolve stack (16,384 graphs at n = 8), relabelings, orbit images, inertia products
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
    the keys of its rows within _TIE_WINDOW of that maximum, so only the key
    is held between batches.
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
            tie = min([tie] + [_witness_key(r[i], g6_encode_bits(order, bits[i]))
                               for order, bits, r in solved for i in np.flatnonzero(r >= top - _TIE_WINDOW)])
        evaluations += len(ratios)
    return _self_check(SearchResult(
        best_ratio=best, best_graph=tie[1], evaluations=evaluations,
        k=k, n=n, seed=None, method=method, history=tuple(history)))


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


@lru_cache(maxsize=EXHAUSTIVE_HARD_MAX + 1)
def _order_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relabeling tables on n vertices from one array of every permutation, the identity
    first: pair weights (m, n!), vertex weights (n!, n) and neighbourhood bits (2^n, n).

    Pair weight (e, p) is 2^(m-1-q), q the graph6 position of pair e's image
    under the p-th permutation, so bits @ weights lists a graph's labels: sums
    of distinct powers of two below 2^36, exact in float64 in a BLAS product.
    Vertex weight (p, i) is 2^(n-1-p(i)), and bit row N holds value N with
    vertex i at bit n-1-i, so vertex[p] @ bits.T lists each value's image under
    the p-th permutation, exact in float32. The bit rows are the one copy that
    _extend, _extensions and _may_exceed read.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    ii, jj = triu_pair_arrays(n)
    a, b = perms[:, ii], perms[:, jj]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    weights = np.ldexp(1.0, len(ii) - 1 - (hi * (hi - 1) // 2 + lo)).T.copy()
    return weights, np.ldexp(np.float32(1), n - 1 - perms), _label_bits(np.arange(1 << n), n)


def _blocks(rows: np.ndarray, width: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, block) over rows that take width entries each: every block
    holds at most _CELLS entries, or one row."""
    step = max(1, _CELLS // width)
    for s in range(0, len(rows), step):
        yield s, rows[s : s + step]


def _canonical_labels(bits: np.ndarray, n: int) -> np.ndarray:
    """Smallest label over all relabelings of each row of edge bits on n vertices."""
    w = _order_tables(n)[0]
    out = np.empty(len(bits), dtype=np.int64)
    for s, block in _blocks(bits, w.shape[1]):
        out[s : s + len(block)] = (block.astype(np.float64) @ w).min(axis=1)
    return out


def _label_bits(labels: np.ndarray, m: int) -> np.ndarray:
    """Edge bits in graph6 order of each label; bit 0 is the most significant."""
    return ((labels[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)


def _extensions(graphs: np.ndarray, j: int) -> np.ndarray:
    """Mask of the one-vertex extensions of graphs on j vertices, one per automorphism
    orbit of neighbourhoods, shape (graphs, 2^j).

    The new vertex j's pairs (0, j)..(j-1, j) come last in graph6 order, so
    an extension's bits are its parent's followed by the new neighbourhood N,
    a j-bit value. H + N and H + sigma(N) are isomorphic for every
    automorphism sigma of H, so entry (H, N) is true only for the values N
    that every sigma in Aut(H) maps to a value at least N, the smallest in
    their orbit. Aut(H) is the set of relabelings under which H keeps its own label.
    """
    w, vertex, hoods = _order_tables(j)
    values = np.arange(1 << j, dtype=vertex.dtype)
    kept = np.empty((len(graphs), 1 << j), dtype=bool)
    # blocks of graphs, then of neighbourhoods, so each image product holds at most _CELLS entries
    for s, block in _blocks(graphs, w.shape[1] << j):
        labels = block.astype(np.float64) @ w
        auts = np.nonzero(labels == labels[:, :1])[1]
        first = np.flatnonzero(auts == 0)  # the identity opens each row's automorphisms
        for h, some in _blocks(hoods, len(auts)):
            kept[s : s + len(block), h : h + len(some)] = np.logical_and.reduceat(
                vertex[auts] @ some.T >= values[h : h + len(some)], first)
    return kept


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


def _extend(graphs: np.ndarray, pairs: tuple[np.ndarray, np.ndarray] | None, j: int, k: int,
            top: int, floor: float) -> np.ndarray:
    """Edge bits of the kept one-vertex extensions of graphs on j vertices, each
    graph's in increasing neighbourhood order, in a search at k on top vertices.

    An extension G is left out when its neighbourhood is not the smallest in
    its orbit (_extensions) or, where pairs holds the graphs' eigenpairs, when
    _may_exceed shows lambda_{k-d}(G) <= tau = (floor - _TIE_WINDOW) top - 1 -
    _INERTIA_MARGIN, with d = top - j - 1: by interlacing no graph on top
    vertices that contains G can then reach floor - _TIE_WINDOW, nor can G
    plus d isolated vertices, whose lambda_k is at most lambda_{k-d}(G).
    Orbits are found only for graphs with an extension left to keep.
    """
    hoods = _order_tables(j)[2]
    if pairs is None:
        keep = _extensions(graphs, j)
    else:
        tau = (floor - _TIE_WINDOW) * top - 1.0 - _INERTIA_MARGIN
        keep = _may_exceed(*pairs, k - (top - j - 1), tau, hoods)
        some = keep.any(axis=1)
        keep[some] &= _extensions(graphs[some], j)
    parent, hood = np.nonzero(keep)
    return np.hstack([graphs[parent], hoods[hood]])


def _classes(n: int, k: int) -> tuple[np.ndarray, float, tuple[np.ndarray, np.ndarray] | None]:
    """One graph per isomorphism class on n vertices that may lie in a graph on
    n + 1 vertices with the maximum ratio at k, as rows of edge bits; the floor;
    and the classes' eigenpairs.

    The loop starts from the one graph on 1 vertex. Level j + 1 is the kept
    one-vertex extensions of level j's classes (_extend), reduced by canonical
    label; each class is kept as its smallest-label relabeling, in label
    order. The floor is a ratio some graph on n + 1 vertices reaches: first
    floor((n+1)/k)/(n+1), from k disjoint cliques on floor((n+1)/k) vertices
    plus isolated vertices. On each level j > n + 1 - k, the classes are
    solved as one eigenpairs stack, and the floor rises to the best ratio of a
    class H plus n + 1 - j isolated vertices. Deleting d = n + 1 - j vertices
    from a graph G leaves some H, and interlacing gives lambda_k(G) <=
    lambda_{k-d}(H), so H is dropped when (lambda_{k-d}(H) + 1)/(n+1) lies
    below the floor by more than _TIE_WINDOW: no extension of it can tie with
    the maximum. Both eigenvalues sit at ascending index n + 1 - k, of H's j
    and of the padded n + 1. The kept classes' eigenpairs go down to the next
    level's inertia filter, which leaves out, before labelling, extensions
    this prune would drop and that could not raise the floor. The floor
    returned is the last one: every graph on n + 1 vertices tied with the
    maximum has a ratio of at least floor - _TIE_WINDOW. The eigenpairs
    returned are level n's; at k = 1 level n is solved too, where lambda_0 =
    +inf prunes nothing, so they are None only when n = 0.
    """
    top = n + 1
    floor = (top // k) / top
    graphs, pairs = np.zeros((1, 0), dtype=np.uint8), None
    for j in range(1, n + 1):
        if j > 1:
            labels = np.unique(_canonical_labels(_extend(graphs, pairs, j - 1, k, top, floor), j))
            graphs = _label_bits(labels, j * (j - 1) // 2)
        if j > min(top - k, top - 2):
            mu, u = eigenpairs(_adjacency_stack(graphs, j))
            padded = np.sort(np.hstack([mu, np.zeros((len(mu), top - j))]), axis=1)
            floor = max(floor, (float(padded[:, top - k].max()) + 1.0) / top)
            lam = mu[:, top - k] if top - k < j else np.full(len(mu), np.inf)  # lambda_0 is +inf
            keep = (lam + 1.0) / top >= floor - _TIE_WINDOW
            graphs, pairs = graphs[keep], (mu[keep], u[keep])
    return graphs, floor, pairs


def exhaustive_max(k: int, n: int) -> SearchResult:
    """Maximum limit ratio over every graph on n vertices, n <= 9.

    Deleting the last vertex of any graph on n vertices leaves a graph on
    n - 1, so the one-vertex extensions of one graph per class on n - 1
    vertices cover every isomorphism class on n, and so do those left when
    each class keeps one neighbourhood per orbit of its automorphisms.
    _classes builds those classes level by level, drops on the way the
    classes that cannot reach its interlacing floor, and returns that floor
    with the eigenpairs of the classes left. Those eigenpairs decide by
    inertia (_may_exceed) which kept extensions can have lambda_k above tau =
    (floor - _TIE_WINDOW) n - 1 - _INERTIA_MARGIN, and only those are solved,
    in batches and without labelling: 2 at (3, 6) and 217 at (3, 8), against
    98 and 20,958 without the filter and 1,088 and 133,632 without any
    pruning. Counting every matrix solved, class levels included, (3, 6)
    solves 20 and (3, 8) 1,032. Every graph tied with the maximum survives
    the floor and the filter, and so does every graph it contains, by
    interlacing.

    The witness is the smallest graph6 among the tied extensions as given,
    and that is the smallest over all labeled graphs tied with the maximum,
    by McKay's canonical augmentation (J. Algorithms 26, 1998). A label on n
    vertices is c 2^(n-1) + N, where c is the label of the graph H that the
    first n - 1 vertices induce and N is the last vertex's neighbourhood.
    Take the relabeling of a tied graph with the smallest label: c is the
    smallest label of H's class, and N the smallest in its orbit under
    Aut(H), or a relabeling of the first n - 1 vertices would lower it. H
    survives, so its class is kept in its smallest-label form c, and
    _extensions keeps N: H + N is a solved extension, tied with the maximum,
    whose own label is that smallest one. This takes isomorphic copies to
    share the 12-decimal tie key, as the module's witness rule does.

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
    classes, floor, pairs = _classes(n - 1, k)
    graphs = _extend(classes, pairs, n - 1, k, n, floor)
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
