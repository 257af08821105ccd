"""Exhaustive, stream, and local searches: oracles and determinism."""

import functools
import io
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup import search
from blowup.cli import EXIT_NUMERIC, main
from blowup.errors import GraphParseError, NumericError
from blowup.graphs import (
    Graph,
    complete,
    g6_decode,
    g6_encode,
    g6_encode_bits,
    g6_parse,
    random_graph,
    triu_pair_arrays,
)
from blowup.search import (
    C3_THRESHOLD,
    THRESHOLD_TOL,
    SearchConfig,
    SearchResult,
    exhaustive_max,
    local_search,
    stream_max,
)
from blowup.spectra import eigen_spectrum, eigenpairs


def ratio_of(g: Graph, k: int) -> float:
    return max(0.0, (float(eigen_spectrum(g).kth(k)) + 1.0) / g.n)


def all_graphs(n: int):
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for b, p in enumerate(pairs) if (mask >> b) & 1])


# -- exhaustive -----------------------------------------------------------------


def test_exhaustive_k1_attains_one():
    for n in (2, 3, 4):
        r = exhaustive_max(1, n)
        assert r.best_ratio == pytest.approx(1.0, abs=1e-12)
        assert g6_decode(r.best_graph).edge_count == n * (n - 1) // 2


def test_exhaustive_k2_n4():
    r = exhaustive_max(2, 4)
    assert r.best_ratio == pytest.approx(0.5, abs=1e-12)
    g = g6_decode(r.best_graph)
    assert ratio_of(g, 2) == pytest.approx(r.best_ratio, abs=1e-12)
    # of the 4 classes on 3 vertices, the empty one has lambda_1 = 0 and cannot
    # reach the floor 1/2 of two disjoint edges; the other 3 have 8
    # neighbourhoods each. Of those 24, inertia leaves only two disjoint
    # edges, the one graph with lambda_2 = 1
    assert r.evaluations == 1


def test_exhaustive_k3_n6():
    r = exhaustive_max(3, 6)
    assert r.best_ratio == pytest.approx(1 / 3, abs=1e-12)
    g = g6_decode(r.best_graph)
    assert g.n == 6
    # several graphs attain 1/3 here (three disjoint edges, the 6-cycle, ...);
    # whichever won, its recomputed lambda_3 must be 1
    assert ratio_of(g, 3) == pytest.approx(r.best_ratio, abs=1e-12)
    assert float(eigen_spectrum(g).kth(3)) == pytest.approx(1.0, abs=1e-9)


def test_exhaustive_k3_stays_at_or_below_third():
    for n in (4, 5, 6):
        r = exhaustive_max(3, n)
        assert r.best_ratio <= C3_THRESHOLD + THRESHOLD_TOL


def test_exhaustive_matches_brute_force_n4():
    # independent recomputation of the full n = 4 landscape
    for k in (1, 2, 3, 4):
        expect = max(ratio_of(g, k) for g in all_graphs(4))
        r = exhaustive_max(k, 4)
        assert r.best_ratio == pytest.approx(expect, abs=1e-12)


def test_exhaustive_deterministic():
    a = exhaustive_max(3, 5)
    b = exhaustive_max(3, 5)
    assert a == b


def test_exhaustive_tie_break_lex_smallest():
    # Several graphs hit the maximum: 1/3 at (k,n) = (2,3) and (3,6),
    # (1+sqrt5)/10 at (3,5), 1/6 at (4,6). Their computed ratios differ by
    # solver noise (at (4,6) the empty graph ties with 8,883 others), and the
    # witness must not depend on it: it is the smallest graph6 within 1e-12
    # of the best.
    for k, n in [(2, 3), (3, 5), (3, 6), (4, 6)]:
        r = exhaustive_max(k, n)
        ties = [
            g6_encode(g) for g in all_graphs(n)
            if abs(ratio_of(g, k) - r.best_ratio) <= 1e-12
        ]
        assert r.best_graph == min(ties), (k, n)


def test_exhaustive_size_gates():
    with pytest.raises(ValueError, match="capped at n = 9"):
        exhaustive_max(3, 10)
    with pytest.raises(ValueError):
        exhaustive_max(0, 4)
    with pytest.raises(ValueError):
        exhaustive_max(5, 4)


def test_search_meets_the_certify_ceiling_check(monkeypatch):
    # search results meet the same ceiling check as certificates: (2, 4)
    # reaches exactly 1/2, so a ceiling patched below it must raise
    from blowup import bounds
    from blowup.errors import InternalConsistencyError

    monkeypatch.setattr(bounds, "nikiforov_upper", lambda k: 0.49)
    with pytest.raises(InternalConsistencyError, match="exceeds the proven ceiling"):
        exhaustive_max(2, 4)


def test_self_check_refuses_a_drifted_witness_ratio():
    # the stored ratio of K_4's witness at k = 1 is 1/2, not the (3 + 1)/4 it reaches
    from blowup.errors import InternalConsistencyError

    drifted = SearchResult(best_ratio=0.5, best_graph=g6_encode(complete(4)), evaluations=1,
                           k=1, n=4, seed=None, method="exhaustive")
    with pytest.raises(InternalConsistencyError, match="witness ratio drifted"):
        search._self_check(drifted)


def labeled_sweep(n: int):
    """Ratio oracle over every labeled graph on n vertices, one batched solve.

    Returns (k -> (best ratio, witness)) by the documented rule: the smallest
    graph6 among the graphs whose ratios round to the maximum at 12 decimals.
    """
    m = n * (n - 1) // 2
    masks = np.arange(1 << m)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(np.uint8)  # mask bit e = graph6 bit e
    ii, jj = triu_pair_arrays(n)
    a = np.zeros((len(masks), n, n))
    a[:, ii, jj] = bits
    a[:, jj, ii] = bits
    w = np.linalg.eigvalsh(a)
    labels = (bits.astype(np.int64) << np.arange(m - 1, -1, -1)).sum(axis=1)
    out = {}
    for k in range(1, n + 1):
        ratios = np.maximum(0.0, (w[:, n - k] + 1.0) / n)
        rounded = np.array([round(float(r), 12) for r in ratios])
        tied = rounded == rounded.max()
        best = np.flatnonzero(tied)[np.argmin(labels[tied])]
        out[k] = (float(ratios.max()), g6_encode_bits(n, bits[best]))
    return out


@functools.cache
def relabel_weights(n: int) -> np.ndarray:
    """Label weights (m, n!) over every permutation of range(n), the oracle for
    the census: entry (e, p) is 2^(m-1-q), q the graph6 position of pair e's
    image under the p-th permutation, so bits @ weights lists a graph's labels,
    sums of distinct powers of two below 2^28, exact in float64."""
    perms = np.array(list(itertools.permutations(range(n))))
    ii, jj = triu_pair_arrays(n)
    a, b = perms[:, ii], perms[:, jj]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.ldexp(1.0, len(ii) - 1 - (hi * (hi - 1) // 2 + lo)).T.copy()


def smallest_labels(bits: np.ndarray, n: int) -> np.ndarray:
    """Smallest label over all relabelings of each row of edge bits on n
    vertices, a block of rows of at most 2^20 labels at a time."""
    w = relabel_weights(n)
    step = max(1, (1 << 20) // w.shape[1])
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [
        (bits[s : s + step].astype(np.float64) @ w).min(axis=1).astype(np.int64)
        for s in range(0, len(bits), step)])


def census_orders() -> list[np.ndarray]:
    """The shipped census, split into orders 1..8 at each order's empty graph."""
    census = np.load(Path(search.__file__).with_name("census.npy"))
    return np.split(census, np.flatnonzero(census == 0))[1:]


def test_class_counts_match_oeis_a000088():
    # each order's labels increase strictly from its empty graph's 0, and
    # _census reads them back as edge bits, with eigenpairs of those graphs
    orders = census_orders()
    assert [len(labels) for labels in orders] == [1, 2, 4, 11, 34, 156, 1044, 12346]
    assert all((np.diff(labels) > 0).all() for labels in orders)
    assert search._census(0)[0].shape == (1, 0)
    for j, labels in enumerate(orders[:7], start=1):
        graphs, (mu, u), hoods = search._census(j)
        m = j * (j - 1) // 2
        assert (graphs.astype(np.int64) << np.arange(m - 1, -1, -1)).sum(axis=1).tolist() == labels.tolist()
        a = search._adjacency_stack(graphs, j)
        a += np.swapaxes(a, 1, 2)
        assert np.allclose(u @ (mu[..., None] * np.swapaxes(u, 1, 2)), a, atol=1e-12), j
        assert hoods.shape == (1 << j, j)


def test_classes_are_canonical_and_distinct():
    # every entry is the smallest label of its own class, so no two entries
    # of one order are isomorphic; distinct canonical entries with
    # A000088's counts make the census complete
    for j, labels in enumerate(census_orders(), start=1):
        bits = search._label_bits(labels, j * (j - 1) // 2)
        assert smallest_labels(bits, j).tolist() == labels.tolist(), j
        if j <= 5:  # the oracle itself, against relabeled graphs re-encoded
            for row in bits:
                g = g6_decode(g6_encode_bits(j, row))
                assert g6_encode(g) == min(g6_encode(g.relabeled(p)) for p in itertools.permutations(range(j)))


def test_exhaustive_matches_labeled_sweep():
    for n in range(1, 7):
        sweep = labeled_sweep(n)
        for k in range(1, n + 1):
            r = exhaustive_max(k, n)
            ratio, witness = sweep[k]
            assert r.best_graph == witness, (k, n)
            assert abs(r.best_ratio - ratio) <= 1e-15, (k, n)


def test_exhaustive_n7_against_atlas():
    # witnesses measured against the labeled sweep over all 2^21 graphs
    witnesses = {2: "F@LAG", 3: "F@Ue?", 4: "F@QM?", 5: "F????"}
    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 7]
    assert len(atlas) == 1044
    w = np.linalg.eigvalsh(np.stack([nx.to_numpy_array(g, nodelist=range(7)) for g in atlas]))
    for k in range(1, 8):
        r = exhaustive_max(k, 7)
        expect = float(np.maximum(0.0, (w[:, 7 - k] + 1.0) / 7).max())
        assert r.best_ratio == pytest.approx(expect, abs=1e-12), k
        assert r.best_graph == witnesses.get(k, r.best_graph), k


@pytest.fixture
def solved(monkeypatch):
    """Number of matrices handed to numpy.linalg.eigvalsh or numpy.linalg.eigh during a test."""
    count = [0]

    def counting(real):
        def solve(a, *args, **kwargs):
            count[0] += int(np.prod(np.shape(a)[:-2]))
            return real(a, *args, **kwargs)
        return solve

    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    return count


def test_exhaustive_solve_count_n7(solved):
    # the 156 classes on 6 vertices in one eigendecomposition stack, on the
    # order's first use; the floor keeps 60, and their eigenpairs leave 259
    # of their 60 * 64 = 3,840 extensions to solve, duplicates included.
    # Plus the witness's self-check. Unpruned: 156 * 2^6 = 9984; a labeled
    # sweep: 2^21
    search._census.cache_clear()
    r = exhaustive_max(3, 7)
    assert r.evaluations == 259
    assert solved[0] == 156 + 259 + 1


@pytest.mark.parametrize("k,n,levels,kept", [
    (2, 4, [4], 3),  # the 4 classes on 3 vertices
    (3, 6, [34], 6),  # the 34 on 5
    (3, 8, [1044], 262),  # the 1,044 on 7; 33,536 extensions of the kept without inertia
])
def test_exhaustive_pruned_solve_counts(solved, monkeypatch, k, n, levels, kept):
    # one eigendecomposition stack of the census order n - 1, on its first
    # use only; the extensions, duplicates included, of the classes kept by
    # the floor that their eigenpairs cannot rule out; and the witness's
    # self-check
    search._census.cache_clear()
    parents, may_exceed = [], search._may_exceed
    monkeypatch.setattr(search, "_may_exceed", lambda mu, *rest: parents.append(len(mu)) or may_exceed(mu, *rest))
    r = exhaustive_max(k, n)
    assert r.evaluations == {(2, 4): 1, (3, 6): 2, (3, 8): 385}[k, n]
    assert parents == [kept]
    assert solved[0] == sum(levels) + r.evaluations + 1
    assert exhaustive_max(k, n) == r
    assert solved[0] == sum(levels) + 2 * (r.evaluations + 1)


def test_witness_is_smallest_relabeling_of_tied_extensions(monkeypatch):
    # the witness read off the tied extensions as given is the smallest
    # label over all relabelings of every tied extension, at n = 8 for
    # every k (per_extension_exhaustive checks n <= 7 against every labeled
    # graph)
    n, drive, solved = 8, search._drive, []

    def keep_batches(k, batches, *rest):
        batches = list(batches)
        solved[:] = [stacks[n] for _, stacks in batches]
        return drive(k, batches, *rest)

    monkeypatch.setattr(search, "_drive", keep_batches)
    for k in range(1, n + 1):
        got = exhaustive_max(k, n)
        bits = np.vstack(solved)
        key = search._witness_key(got.best_ratio, "")
        tied = [search._witness_key(r, "") == key for r in search._ratio(search._adjacency_stack(bits, n), k)]
        smallest = smallest_labels(bits[tied], n).min()
        assert got.best_graph == g6_encode_bits(n, search._label_bits(np.array([smallest]), bits.shape[1])[0]), k


@functools.cache
def per_extension_exhaustive(n: int) -> dict[int, SearchResult]:
    """Exhaustive oracle: the documented rules applied one extension at a time.

    Each one-vertex extension of one graph per class on n - 1 vertices, by
    each of the 2^(n-1) neighbourhoods, is solved on its own, for every k,
    with no pruning or isomorph rejection; the history lists the strict
    improvements of the float maximum, and the witness is the smallest
    graph6 over all relabelings of the extensions tied with the maximum to
    12 decimals. Beside each result is a ceiling on any interlacing floor:
    the clique floor floor(n/k)/n or the best ratio of a graph with an
    isolated vertex, whichever is larger.
    """
    ii, jj = triu_pair_arrays(n)
    perms = np.array(list(itertools.permutations(range(n))))
    weights = 1 << np.arange(len(ii) - 1, -1, -1)
    matrices = []
    for row in search._census(n - 1)[0]:
        for hood in itertools.product((0, 1), repeat=n - 1):
            a = np.zeros((n, n))
            a[ii, jj] = a[jj, ii] = np.concatenate([row, hood])
            matrices.append(a)

    @functools.cache
    def smallest_relabeling(i: int) -> str:
        relabeled = matrices[i][perms[:, ii], perms[:, jj]].astype(np.int64)  # one row per relabeling
        return g6_encode_bits(n, relabeled[np.argmin(relabeled @ weights)].astype(np.uint8))

    isolated = [not a.any(axis=0).all() for a in matrices]
    out = {}
    for k in range(1, n + 1):
        ratios = [search._ratio(a, k) for a in matrices]
        best, history = -math.inf, []
        for i, ratio in enumerate(ratios, start=1):
            if ratio > best:
                best = ratio
                history.append((i, ratio))
        witness = min(smallest_relabeling(i) for i, ratio in enumerate(ratios)
                      if round(ratio, 12) == round(best, 12))
        result = SearchResult(best_ratio=best, best_graph=witness, evaluations=len(ratios),
                              k=k, n=n, seed=None, method="exhaustive", history=tuple(history))
        ceiling = max([(n // k) / n] + [r for r, iso in zip(ratios, isolated) if iso])
        out[k] = result, ceiling
    return out


@pytest.mark.parametrize("cells", [None, 500])
def test_exhaustive_matches_per_extension_reference(cells, monkeypatch):
    # a small cell cap splits each search into many batches (10 at a time at
    # n = 7), so the history and the witness fold across batches. Pruning
    # drops only extensions below the floor, so the witness is the
    # reference's, and the ratio and the distinct history values at or
    # above any floor the engine can reach agree with it to 12 decimals. At
    # k = 1 only K_n reaches the floor 1, so inertia leaves it alone to
    # solve.
    if cells:
        monkeypatch.setattr(search, "_CELLS", cells)
    for n in range(1, 8):
        want = per_extension_exhaustive(n)
        for k in range(1, n + 1):
            got, (unpruned, ceiling) = exhaustive_max(k, n), want[k]
            assert got.best_graph == unpruned.best_graph, (k, n)
            assert abs(got.best_ratio - unpruned.best_ratio) <= 1e-12, (k, n)
            above = [{round(r, 12) for _, r in result.history if round(r, 12) >= round(ceiling, 12)}
                     for result in (got, unpruned)]
            assert above[0] == above[1], (k, n)
            assert got.evaluations <= unpruned.evaluations, (k, n)
            if k == 1:
                assert got.evaluations == 1, n


#: eigenvalues that small graphs have exactly
EXACT_EIGENVALUES = sorted({sign * v for sign in (1, -1) for v in (
    0.0, 1.0, 2.0, 3.0, math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(6), 2 * math.sqrt(2),
    (1 + math.sqrt(5)) / 2, (math.sqrt(5) - 1) / 2, 1 + math.sqrt(2), math.sqrt(2) - 1,
    (1 + math.sqrt(17)) / 2, (math.sqrt(17) - 1) / 2, (1 + math.sqrt(13)) / 2, (math.sqrt(13) - 1) / 2)})


def eigenvalues_above(a: np.ndarray, tau: float) -> int:
    """Eigenvalues of a symmetric 0/1 matrix above tau, counted exactly.

    The characteristic polynomial comes from the Faddeev-LeVerrier recurrence
    in integers; shifted by tau as a Fraction, its sign changes count its roots
    above tau, which Descartes' rule gives exactly for a real-rooted polynomial.
    """
    n, a = len(a), a.astype(int).tolist()
    coeffs, m = [1], [[0] * n for _ in range(n)]  # x^n first
    for t in range(1, n + 1):
        m = [[sum(a[r][i] * m[i][c] for i in range(n)) + (coeffs[-1] if r == c else 0)
              for c in range(n)] for r in range(n)]
        coeffs.append(-sum(a[r][i] * m[i][r] for r in range(n) for i in range(n)) // t)
    shifted, x = [], Fraction(tau)
    for _ in range(n + 1):  # Taylor shift by repeated synthetic division
        coeffs = list(itertools.accumulate(coeffs, lambda acc, c: acc * x + c))
        shifted.append(coeffs.pop())
    signs = [c > 0 for c in shifted[::-1] if c != 0]
    return sum(p != q for p, q in zip(signs, signs[1:]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_inertia_filter_drops_only_graphs_at_or_below_tau(data):
    # extensions G = H + x of up to three graphs H on j <= 9 vertices, read
    # from H's eigenpairs as the census hands them down; tau at exact
    # eigenvalues of small graphs, at G's and H's own (H's also as the filter
    # reads them), and one ulp or 1e-12 off them, where the Schur complement
    # or a parent eigenvalue meets tau. Every G the filter drops has
    # lambda_k(G) <= tau, by the dense solver and exactly.
    j = data.draw(st.integers(0, 9))
    m = j * (j - 1) // 2
    parents, at, rows = [], [], []
    for i in range(data.draw(st.integers(1, 3))):
        parents.append(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
        for _ in range(data.draw(st.integers(1, 4))):
            at.append(i)
            rows.append(parents[i] + data.draw(st.lists(st.integers(0, 1), min_size=j, max_size=j)))
    extensions = np.array(rows, dtype=np.uint8).reshape(len(rows), m + j)
    hoods = (extensions[:, m:].astype(int) << np.arange(j - 1, -1, -1)).sum(axis=1)
    mu, u = eigenpairs(search._adjacency_stack(np.array(parents, dtype=np.uint8).reshape(len(parents), m), j))
    ii, jj = triu_pair_arrays(j + 1)
    a = np.zeros((len(rows), j + 1, j + 1))
    a[:, ii, jj] = a[:, jj, ii] = extensions
    w = np.linalg.eigvalsh(a)
    own = np.concatenate([w.ravel(), np.linalg.eigvalsh(a[:, :j, :j]).ravel(), mu.ravel()])
    tau = data.draw(st.sampled_from(EXACT_EIGENVALUES + sorted(set(own.tolist()))))
    tau = data.draw(st.sampled_from([tau - 1e-12, np.nextafter(tau, -math.inf), tau,
                                     np.nextafter(tau, math.inf), tau + 1e-12]))
    bits = search._label_bits(np.arange(1 << j), j)
    for k in range(1, j + 2):
        mask = search._may_exceed(mu, u, k, tau, bits)
        assert mask.shape == (len(parents), 1 << j)
        dropped = ~mask[at, hoods]
        assert (w[dropped, j + 1 - k] <= tau + 1e-12).all(), (k, tau, w[dropped, j + 1 - k])
        assert all(eigenvalues_above(a[i], tau) < k for i in np.flatnonzero(dropped)), (k, tau)


def keep_every_extension(mu, u, k, tau, hoods):
    """The inertia filter's mask with every extension kept."""
    return np.ones((len(mu), 1 << mu.shape[1]), dtype=bool)


def test_inertia_filter_changes_no_result(monkeypatch):
    # against the same search with the filter off: it leaves out only
    # extensions with lambda_k <= tau, below the floor, so the witness, the
    # ratio to the bit and the distinct history values above (tau + 1)/n agree
    taus, may_exceed = {}, search._may_exceed

    def record(mu, u, k, tau, hoods):
        taus[k, mu.shape[1] + 1] = tau
        return may_exceed(mu, u, k, tau, hoods)

    monkeypatch.setattr(search, "_may_exceed", record)
    searches = {(k, n): exhaustive_max(k, n) for n in range(1, 9) for k in range(1, n + 1)}
    monkeypatch.setattr(search, "_may_exceed", keep_every_extension)
    for (k, n), got in searches.items():
        want, cut = exhaustive_max(k, n), (taus[k, n] + 1.0) / n
        assert got.best_graph == want.best_graph, (k, n)
        assert got.best_ratio == want.best_ratio, (k, n)
        above = [{r for _, r in result.history if r > cut} for result in (got, want)]
        assert above[0] == above[1], (k, n)
        assert got.evaluations <= want.evaluations, (k, n)


@pytest.mark.parametrize("k,witness,ratio,evaluations", [
    (3, "H@LAKA@", 1 / 3, 3),  # the open k = 3 question at n = 9: no ratio above 1/3
    (7, "H??????", 1 / 9, 6445),  # all 6,445 solved extensions tie at lambda_7 = 0
    (9, "H??????", 1 / 9, 1),  # lambda_9 <= 0, with 0 only in the empty graph
])
def test_exhaustive_n9(k, witness, ratio, evaluations):
    r = exhaustive_max(k, 9)
    assert r.best_graph == witness
    assert r.best_ratio == pytest.approx(ratio, abs=1e-12)
    assert r.evaluations == evaluations


@pytest.mark.parametrize("k", [3, 7, 9])
def test_exhaustive_n9_holds_one_census_order_under_8_mib(k):
    # an n = 9 search labels nothing and reads the census at order 8 alone;
    # what it leaves held, that order's classes, eigenpairs and neighbourhood
    # rows, is under 8 MiB, less than one relabeling table on 8 vertices
    import tracemalloc

    search._census.cache_clear()
    tracemalloc.start()
    try:
        exhaustive_max(k, 9)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert search._census.cache_info().currsize == 1
    assert held <= 8 << 20, held


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_interlacing_bounds_each_vertex_deletion(data):
    # lambda_k(G) <= lambda_{k-d}(G - S) for every d-set S, on the solver alone
    n = data.draw(st.integers(1, 10))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    ii, jj = triu_pair_arrays(n)
    a = np.zeros((n, n))
    a[ii, jj] = a[jj, ii] = bits
    deleted = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    rest = [v for v in range(n) if v not in deleted]
    w = np.linalg.eigvalsh(a)[::-1]
    h = np.linalg.eigvalsh(a[np.ix_(rest, rest)])[::-1]
    d = len(deleted)
    for k in range(d + 1, n + 1):
        assert w[k - 1] <= h[k - d - 1] + 1e-12, (k, d)


def test_clique_floor_is_reached():
    # k disjoint cliques on floor(n/k) vertices, plus isolated vertices
    for n in range(1, 9):
        for k in range(1, n + 1):
            m = n // k
            edges = [(c * m + i, c * m + j) for c in range(k) for j in range(m) for i in range(j)]
            g = Graph.from_edges(n, edges)
            assert abs(search._ratio(g.matrix(), k) - m / n) <= 1e-15, (k, n)


# -- stream ------------------------------------------------------------------------


def test_stream_agrees_with_exhaustive_n5():
    lines = [g6_encode(g) for g in all_graphs(5)]
    r = stream_max(3, iter(lines))
    e = exhaustive_max(3, 5)
    assert r.best_ratio == pytest.approx(e.best_ratio, abs=1e-12)
    assert r.best_graph == e.best_graph
    assert r.evaluations == 1024


def test_stream_witness_does_not_depend_on_order():
    lines = [g6_encode(g) for g in all_graphs(5)]
    random.Random(5).shuffle(lines)
    for k in range(1, 6):
        r, e = stream_max(k, iter(lines)), exhaustive_max(k, 5)
        assert r.best_graph == e.best_graph, k
        assert r.best_ratio == pytest.approx(e.best_ratio, abs=1e-12)


def test_stream_mixed_orders_and_blanks():
    lines = ["", g6_encode(Graph.from_edges(4, [(0, 1), (2, 3)])), "  ",
             ">>graph6<<" + g6_encode(Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))]
    r = stream_max(3, iter(lines))
    assert r.best_ratio == pytest.approx(1 / 3, abs=1e-12)
    assert r.evaluations == 2


def test_stream_error_carries_line_number():
    with pytest.raises(GraphParseError, match="line 2"):
        stream_max(1, iter(["@", "!!notgraph6!!"]))


def test_stream_too_few_vertices():
    with pytest.raises(GraphParseError, match="line 1"):
        stream_max(5, iter(["C?"]))


def test_stream_skip_mode():
    lines = ["!!bad!!", g6_encode(Graph.from_edges(2, [(0, 1)])), "also bad"]
    r = stream_max(1, iter(lines), on_error="skip")
    assert r.best_ratio == pytest.approx(1.0)
    assert r.evaluations == 1


@pytest.mark.parametrize("on_error", ["raise", "skip"])
def test_stream_line_above_dense_ceiling(monkeypatch, on_error):
    # the order field alone refuses the line, before any n x n array exists
    import blowup.graphs as graphs

    monkeypatch.setattr(graphs, "MAX_DENSE_ORDER", 10)
    lines = [g6_encode(complete(3)), g6_encode(complete(11))]
    if on_error == "raise":
        with pytest.raises(GraphParseError, match="line 2: .*beyond the ceiling 10"):
            stream_max(1, iter(lines))
        return
    r = stream_max(1, iter(lines), on_error="skip")
    assert r.evaluations == 1
    assert r.best_graph == g6_encode(complete(3))


def test_stream_order_field_above_the_real_ceiling():
    # "~@MH" is only the order field of a graph on 5001 vertices
    with pytest.raises(GraphParseError, match="line 1: .*order 5001 .*ceiling 5000"):
        stream_max(1, iter(["~@MH"]))


def test_stream_refuses_bad_arguments():
    with pytest.raises(ValueError, match="k must be >= 1"):
        stream_max(0, iter(["A_"]))
    with pytest.raises(ValueError, match="on_error must be"):
        stream_max(1, iter(["A_"]), on_error="ignore")


def test_stream_empty_is_error():
    with pytest.raises(ValueError, match="empty stream"):
        stream_max(3, iter([]))
    with pytest.raises(ValueError, match="empty stream"):
        stream_max(3, iter(["!!bad!!"]), on_error="skip")


def test_stream_reads_file_objects():
    text = "\n".join(g6_encode(g) for g in itertools.islice(all_graphs(4), 20))
    r = stream_max(2, io.StringIO(text))
    assert r.evaluations == 20


def per_line_stream(k: int, lines, on_error: str = "raise") -> SearchResult:
    """Stream oracle: the documented rules applied one line at a time.

    Each line is decoded by g6_decode and solved on its own, and a line is
    blank when g6_parse gives None; the witness is the smallest re-encoded
    graph6 among the lines tied with the maximum to 12 decimals.
    """
    best_ratio, best_key, evaluations, skipped, history = -math.inf, (math.inf, ""), 0, 0, []
    for lineno, line in enumerate(lines, start=1):
        try:
            if g6_parse(line) is None:
                continue
            g = g6_decode(line)
            if g.n < k:
                raise GraphParseError(f"graph has n={g.n} < k={k}")
        except (GraphParseError, ValueError) as e:
            if on_error == "skip":
                skipped += 1
                continue
            raise GraphParseError(f"line {lineno}: {e}") from None
        evaluations += 1
        ratio = search._ratio(g.matrix(), k)
        if ratio > best_ratio:
            best_ratio = ratio
            history.append((evaluations, ratio))
        best_key = min(best_key, search._witness_key(ratio, g6_encode(g)))
    if not evaluations:
        raise ValueError(f"empty stream: no usable graphs ({skipped} skipped)")
    return SearchResult(best_ratio=best_ratio, best_graph=best_key[1], evaluations=evaluations,
                        k=k, n=None, seed=None, method="stream", history=tuple(history))


MALFORMED = ["!bad", "B", "Bx", "~", "~~??", "@@", "?", "C~~", "\u00e9B", "A`", "  ", ">>graph6<<"]


def mixed_stream(seed: int, lines: int, orders=(*range(1, 13), 62, 63), bad: float = 0.1):
    """A seeded graph6 stream: fresh graphs of the given orders, relabelings and
    exact repeats of earlier lines, long-form order fields on small orders,
    a header on the first line, and a share of blank or malformed lines."""
    rng = random.Random(seed)
    graphs, out = [], []
    for _ in range(lines):
        kind = rng.random()
        if kind < bad:
            out.append(rng.choice(MALFORMED))
            continue
        if kind < bad + 0.2 and graphs:
            g = rng.choice(graphs)
            out.append(g6_encode(g.relabeled(rng.sample(range(g.n), g.n))))
        elif kind < bad + 0.3 and out:
            out.append(rng.choice(out))
        else:
            graphs.append(random_graph(rng.choice(orders), rng))
            line = g6_encode(graphs[-1])
            if graphs[-1].n <= 62 and rng.random() < 0.2:
                line = "~??" + line  # the same graph with the 4-byte order field
            out.append(line)
    out[0] = ">>graph6<<" + out[0]
    return out


def outcome(search_fn, *args):
    try:
        return search_fn(*args)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("cells", [None, 150, 4000])
@pytest.mark.parametrize("seed", range(4))
def test_stream_matches_per_line_reference(seed, cells, monkeypatch):
    # a small cell cap splits the stream into many solves; order 62 and 63
    # lines fill one on their own
    if cells:
        monkeypatch.setattr(search, "_CELLS", cells)
    lines = mixed_stream(seed, 160)
    clean = mixed_stream(seed, 160, orders=(*range(5, 13), 62, 63), bad=0)
    for k in range(1, 6):
        for on_error in ("raise", "skip"):
            want = outcome(per_line_stream, k, lines, on_error)
            assert outcome(stream_max, k, lines, on_error) == want, (k, on_error)
        assert stream_max(k, clean) == per_line_stream(k, clean), k


def test_stream_longer_than_one_solve_matches_reference():
    # 11,000 order-10 lines: two solves under the real cell cap
    lines = mixed_stream(9, 11_000, orders=(10,), bad=0)
    r = stream_max(3, lines)
    assert r.evaluations > search._CELLS // 100
    assert r == per_line_stream(3, lines)


_LINE_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(st.characters(min_codepoint=9, max_codepoint=127), max_size=12),
    st.builds(lambda head, n, body: head + chr(63 + n) + body,
              st.sampled_from(["", " ", ">>graph6<<", "~??", ">>graph6<<~??"]),
              st.integers(0, 8), st.text(st.characters(min_codepoint=60, max_codepoint=127), max_size=6)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_LINE_TEXT)
@example("Bw")
@example(" ~??Bw ")
@example("A`")
@example("  C!")
@example(">>graph6<<>>graph6<<Ch")
@example("  >>graph6<<  Ch")
@example(" >>graph6<< ")
def test_stream_line_errors_match_g6_decode(s):
    # each raw line goes to g6_decode as given; g6_parse alone says what is blank
    blank = False
    try:
        blank = g6_parse(s) is None
        g = g6_decode(s)
    except (GraphParseError, ValueError) as e:
        with pytest.raises(ValueError) as info:
            stream_max(1, [s])
        if blank:
            assert str(info.value).startswith("empty stream")
        else:
            assert type(info.value) is GraphParseError
            assert str(info.value) == f"line 1: {e}"
        return
    assert stream_max(1, [s]).best_ratio == search._ratio(g.matrix(), 1)


def test_stream_checks_lines_as_they_are_read():
    # an endless stream: line 10 must raise before the rest is drained
    lines = itertools.chain(["Bw"] * 9, ["!bad"], itertools.repeat("Bw"))
    with pytest.raises(GraphParseError, match="^line 10: "):
        stream_max(1, lines)


def test_adjacency_stack_fills_the_lower_triangle_in_graph6_order():
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        bits = (rng.random((5, n * (n - 1) // 2)) < 0.5).astype(np.uint8)
        stack = search._adjacency_stack(bits, n)
        assert not np.triu(stack).any()
        for a, row in zip(stack, bits):
            assert np.array_equal(a, np.tril(g6_decode(g6_encode_bits(n, row)).matrix()))


def test_stream_solves_in_bounded_stacks(monkeypatch):
    # pending lines are solved once they fill the cell cap, so no stack
    # holds more than the cap plus one line
    monkeypatch.setattr(search, "_CELLS", 1000)
    shapes = []
    solve = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    lines = mixed_stream(3, 500, orders=(9, 10, 11))
    r = stream_max(2, lines, on_error="skip")
    stacks = [shape for shape in shapes if len(shape) == 3]
    assert sum(shape[0] for shape in stacks) == r.evaluations
    assert max(shape[0] * shape[1] ** 2 for shape in stacks) < 1000 + 11**2


# -- local search ---------------------------------------------------------------------


def test_hillclimb_fills_in_complete_graph():
    cfg = SearchConfig(k=1, n=5, method="hillclimb", seed=7, budget=4000, restarts=2)
    r = local_search(cfg)
    assert r.best_ratio == pytest.approx(1.0, abs=1e-12)
    assert g6_decode(r.best_graph).edge_count == 10


def test_local_search_deterministic():
    cfg = SearchConfig(k=3, n=8, method="anneal", seed=1234, budget=3000, restarts=2)
    a = local_search(cfg)
    b = local_search(cfg)
    assert a == b
    # a different seed is recorded in the result even if it lands on the
    # same optimum
    c = local_search(SearchConfig(k=3, n=8, method="anneal", seed=1235,
                                  budget=3000, restarts=2))
    assert c.seed == 1235


# Seeded outputs pinned from an earlier build: how the engine stores its state
# must not change any RNG draw or any accepted move.
PINNED_RUNS = [
    # method, seed, k, n -> witness, evaluations, history length, last improvement, ratio
    (("anneal", 3, 4, 12), ("K[C[`hkkmtuK", 1500, 10, 876, 0.21928248207679366)),
    (("hillclimb", 5, 3, 30),
     ("]NXrT`IcTihU|UqlO]{VjQ~{{ICIsaVzp}dKQh[ZwWHqzrOlVmp^i`MQJVOsTjrc\\a`NX]B?hg",
      1500, 128, 1457, 0.2875971027142536)),
    (("anneal", 0, 1, 1), ("@", 1, 1, 1, 1.0)),
    (("hillclimb", 7, 2, 2), ("A?", 1500, 1, 1, 0.5)),
    (("anneal", 11, 3, 8), ("GgZPsc", 1500, 17, 1323, 0.30177669529663687)),
]


@pytest.mark.parametrize("config,pinned", PINNED_RUNS)
def test_local_search_matches_pinned_runs(config, pinned):
    method, seed, k, n = config
    r = local_search(SearchConfig(k=k, n=n, method=method, seed=seed, budget=1500, restarts=3))
    *head, ratio = pinned
    assert [r.best_graph, r.evaluations, len(r.history), r.history[-1][0]] == head
    assert r.best_ratio == pytest.approx(ratio, abs=1e-12)


def test_local_search_history_monotone():
    cfg = SearchConfig(k=3, n=10, method="anneal", seed=99, budget=5000, restarts=3)
    r = local_search(cfg)
    ratios = [v for _, v in r.history]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    evals = [i for i, _ in r.history]
    assert all(b > a for a, b in zip(evals, evals[1:]))
    assert r.best_ratio == ratios[-1]
    assert r.evaluations <= cfg.budget


def test_local_search_witness_honest():
    cfg = SearchConfig(k=3, n=9, method="anneal", seed=4, budget=4000, restarts=2)
    r = local_search(cfg)
    assert ratio_of(g6_decode(r.best_graph), 3) == pytest.approx(r.best_ratio, abs=1e-12)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(k=0, n=5)
    with pytest.raises(ValueError):
        SearchConfig(k=6, n=5)
    with pytest.raises(ValueError):
        SearchConfig(k=2, n=80)
    with pytest.raises(ValueError):
        SearchConfig(k=2, n=5, method="quantum")
    with pytest.raises(ValueError):
        SearchConfig(k=2, n=5, budget=0)
    with pytest.raises(ValueError):
        SearchConfig(k=2, n=5, t0=-1.0)
    # NaN would silently refuse every worsening move; inf would accept them all
    for t0 in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite t0"):
            SearchConfig(k=2, n=5, t0=t0)


# -- solver failures --------------------------------------------------------------------

SOLVES = {
    "exhaustive_max": lambda: exhaustive_max(3, 4),
    "stream_max": lambda: stream_max(2, iter(["Bw", "C~"])),
    "local_search": lambda: local_search(SearchConfig(k=3, n=8, seed=1, budget=50)),
    "eigen_spectrum": lambda: eigen_spectrum(complete(4)),
}


def failing_eigvalsh(mode: str):
    def solve(a, *args, **kwargs):
        if mode == "raise":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.full(np.shape(a)[:-1], np.nan)

    return solve


@pytest.mark.parametrize("mode", ["raise", "nan"])
@pytest.mark.parametrize("engine", sorted(SOLVES))
def test_failed_solve_is_numeric_error(engine, mode, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh(mode))
    with pytest.raises(NumericError):
        SOLVES[engine]()


@pytest.mark.parametrize("mode", ["raise", "nan"])
def test_failed_eigenvector_solve_is_numeric_error(mode, monkeypatch):
    # the census stack's eigendecomposition fails as the eigenvalue solves
    # do; an order solved by an earlier test would not be solved again
    values = failing_eigvalsh(mode)
    search._census.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: (values(a), np.full(np.shape(a), np.nan)))
    with pytest.raises(NumericError):
        exhaustive_max(3, 4)


def test_failed_census_solve_is_not_cached(monkeypatch):
    # a census order whose solve fails keeps no entry, so the next call
    # solves it again and succeeds
    want = exhaustive_max(3, 4)
    search._census.cache_clear()
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", failing_eigvalsh("raise"))
    with pytest.raises(NumericError):
        exhaustive_max(3, 4)
    assert search._census.cache_info().currsize == 0
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert exhaustive_max(3, 4) == want
    assert search._census.cache_info().currsize == 1


@pytest.mark.parametrize("mode", ["raise", "nan"])
@pytest.mark.parametrize("method", ["exhaustive", "stream", "anneal"])
def test_failed_solve_exits_three(method, mode, capsys, monkeypatch, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Dhc\n")
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh(mode))
    code = main(["search", "--k", "3", "--n", "5", "--method", method,
                 "--budget", "50", "--g6-file", str(path)])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err
