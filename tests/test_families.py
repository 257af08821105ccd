"""Named families, parameter-determined spectra, and the expression grammar."""

import inspect
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup.errors import (
    GraphParseError,
    InfeasibleIntersectionArray,
    InfeasibleSrgParameters,
    InternalConsistencyError,
)
from blowup.exact import Quadratic
from blowup.families import (
    Derived,
    Explicit,
    IntersectionArray,
    SpectralDescriptor,
    SrgParams,
    _icosahedron,
    _johnson,
    _johnson_generators,
    _johnson_spectrum,
    _paley,
    _petersen,
    _subsets,
    icosahedron,
    johnson,
    paley,
    parse_expression,
    petersen,
)
from blowup.graphs import (
    MAX_DENSE_ORDER,
    Graph,
    cartesian_product,
    closed_blowup_graph,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    g6_decode,
    g6_encode,
    random_graph,
)
from blowup.spectra import (
    Spectrum,
    _exactness_bound,
    _hoffman_polynomial,
    _hoffman_row,
    _orbits,
    blowup_transform,
    check_stated_spectrum,
    eigen_spectrum,
)


def exact_entries(desc):
    return tuple((v, m) for v, m in desc.spectrum.entries)


def srg(params):
    return parse_expression("srg:" + ",".join(map(str, params)))


def drg(b, c):
    return parse_expression("drg:" + ",".join(map(str, b)) + ";" + ",".join(map(str, c)))


# -- johnson ---------------------------------------------------------------


def test_johnson_4_2_is_octahedron():
    # J(4,2) = complement of a perfect matching on 6 vertices
    d = parse_expression("johnson:4,2")
    assert exact_entries(d) == ((Quadratic(4), 1), (Quadratic(0), 3), (Quadratic(-2), 2))
    matching = disjoint_union(disjoint_union(complete(2), complete(2)), complete(2))
    oracle = eigen_spectrum(complement(matching))
    assert d.spectrum.allclose(oracle)


def test_johnson_7_2_entries():
    d = parse_expression("johnson:7,2")
    assert d.n == 21
    assert exact_entries(d) == ((Quadratic(10), 1), (Quadratic(3), 6), (Quadratic(-2), 14))
    assert d.spectrum.kth(7) == Quadratic(3)


def johnson_by_pairs(m, r):
    """Reference adjacency: compare every pair of r-subsets directly."""
    verts = [frozenset(c) for c in combinations(range(m), r)]
    a = np.zeros((len(verts), len(verts)), dtype=bool)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if len(verts[i] & verts[j]) == r - 1:
                a[i, j] = a[j, i] = True
    return a


def test_johnson_triple_subsets():
    # r = 3 and 4: more eigenvalue formula levels plus the valency
    for m, r in ((7, 3), (9, 3), (12, 3), (10, 4)):
        d = parse_expression(f"johnson:{m},{r}")
        assert d.n == math.comb(m, r)
        g = johnson(m, r)
        assert np.array_equal(g.adj, johnson_by_pairs(m, r))
        assert d.spectrum.allclose(eigen_spectrum(g))


def test_johnson_general_against_eigensolver():
    for m in list(range(4, 10)) + [16]:
        d = parse_expression(f"johnson:{m},2")
        g = johnson(m, 2)
        assert np.array_equal(g.adj, johnson_by_pairs(m, 2))
        assert d.spectrum.allclose(eigen_spectrum(g))
        assert d.n == m * (m - 1) // 2


def test_johnson_matches_integer_incidence_product():
    # the clique build gives the same bytes as the int32 incidence product
    cases = [(m, r) for m in range(2, 15) for r in range(1, m // 2 + 1)] + [(m, 2) for m in range(15, 41)]
    for m, r in cases:
        subsets = np.array(list(combinations(range(m), r)), dtype=np.intp)
        inc = np.zeros((len(subsets), m), dtype=np.int32)
        np.put_along_axis(inc, subsets, 1, axis=1)
        want = inc @ inc.T == r - 1
        got = johnson(m, r).adj
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (m, r)


def test_johnson_rejects():
    with pytest.raises(ValueError):
        johnson(3, 2)
    with pytest.raises(ValueError):
        johnson(4, 0)
    # beyond the dense-order ceiling, refused before C(m, r) is formed
    with pytest.raises(ValueError, match="ceiling"):
        johnson(101, 2)
    with pytest.raises(ValueError, match="ceiling"):
        johnson(10**6, 5 * 10**5)


# -- fixed graphs ------------------------------------------------------------


def test_icosahedron():
    g = icosahedron()
    assert g.n == 12 and g.edge_count == 30
    assert (g.adj.sum(axis=1) == 5).all()
    d = parse_expression("icosahedron")
    assert exact_entries(d) == (
        (Quadratic(5), 1),
        (Quadratic.sqrt(5), 3),
        (Quadratic(-1), 5),
        (-Quadratic.sqrt(5), 3),
    )


def test_corrupted_exact_spectrum_rejected():
    g = icosahedron()
    bad = [(Quadratic(5), 1), (Quadratic.sqrt(5), 3), (Quadratic(-1), 8)]
    with pytest.raises(ValueError):
        SpectralDescriptor("broken", Explicit(g, tuple(bad)))


#: graphs with a wrong stated spectrum, and the refusal each gets
WRONG_STATED = [
    # J(7,2) is ((10, 1), (3, 6), (-2, 14)); its multiplicities swapped
    (johnson(7, 2), ((10, 1), (3, 14), (-2, 6)), "multiplicities"),
    # J(9,3) is ((18, 1), (9, 8), (2, 27), (-3, 48)); these keep its order
    # and trace, so only tr H_2(A) tells them apart
    (johnson(9, 3), ((18, 1), (9, 3), (2, 39), (-3, 41)), "multiplicities"),
    # within 1e-8 of J(7,2)'s spectrum, but not an algebraic integer
    (johnson(7, 2), ((10, 1), (Quadratic(3 + Fraction(1, 10**10)), 6), (-2, 14)), "algebraic integer"),
    (icosahedron(), ((5, 1), (Quadratic.sqrt(5), 6), (-1, 5)), "conjugate"),
    (paley(13), ((6, 1), (Quadratic(Fraction(-1, 2), Fraction(1, 2), 13), 5),
                 (Quadratic(Fraction(-1, 2), Fraction(-1, 2), 13), 7)), "conjugate"),
    # the true spectrum of two disjoint Petersen graphs: its top value is not simple
    (disjoint_union(petersen(), petersen()), ((3, 2), (1, 10), (-2, 8)), "simple integer"),
    # the pentagonal prism is 3-regular on 10 vertices, but not Petersen
    (cartesian_product(cycle(5), complete(2)), ((3, 1), (1, 5), (-2, 4)), "not \\(Q\\(k\\)/n\\) J"),
    (petersen(), ((4, 1), (1, 5), (-2, 4)), "degree"),
]

#: automorphisms spanning a vertex-transitive group of each WRONG_STATED graph
_PETERSEN_GENERATORS = _petersen().generators
WRONG_STATED_GENERATORS = [
    _johnson(7, 2).generators,
    _johnson(9, 3).generators,
    _johnson(7, 2).generators,
    _icosahedron().generators,
    _paley(13).generators,
    # each copy's automorphisms, and the swap of the two copies
    (*(np.r_[g, g + 10] for g in _PETERSEN_GENERATORS), np.r_[10:20, 0:10]),
    # prism vertex (u, v) is 2u + v: turn both pentagons, swap them
    ((np.arange(10) + 2) % 10, np.arange(10) ^ 1),
    _PETERSEN_GENERATORS,
]


@pytest.mark.parametrize("graph, stated, match", WRONG_STATED)
def test_wrong_stated_spectrum_refused(graph, stated, match):
    with pytest.raises(ValueError, match=match):
        Explicit(graph, stated).spectrum()


def verdict(graph, stated, generators):
    """The message of the refusal of a stated spectrum, or None when it passes."""
    try:
        Explicit(graph, stated, generators).spectrum()
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.parametrize("case", range(len(WRONG_STATED)))
def test_wrong_stated_one_row_verdict_equals_all_rows(case):
    # one row per orbit refuses each wrong spectrum with the same message as
    # all n rows, whose diagonals add up to the same traces
    graph, stated, _ = WRONG_STATED[case]
    whole = verdict(graph, stated, ())
    assert verdict(graph, stated, WRONG_STATED_GENERATORS[case]) == whole is not None


#: every family that states its spectrum, at the orders the eigensolver checks
STATED_FAMILIES = [
    *(f"johnson:{m},{r}" for m in range(2, 13) for r in range(1, m // 2 + 1)),
    *(f"paley:{q}" for q in range(5, 200) if q == 9 or (q % 4 == 1 and all(q % p for p in range(2, q)))),
    *(f"complete:{n}" for n in range(1, 7)),
    *(f"cycle:{n}" for n in range(3, 7)),
    "icosahedron", "petersen",
]


@pytest.mark.parametrize("expr", STATED_FAMILIES)
def test_stated_spectrum_matches_eigensolver(expr):
    # the eigensolver as an oracle for every family that states its spectrum
    d = parse_expression(expr)
    assert d.provenance.exact is not None
    assert d.spectrum.allclose(eigen_spectrum(d.provenance.graph))


def test_johnson_products_stay_exact():
    # every Johnson graph within the dense ceiling is checked in exact int64
    # sums; only the bound is computed, no graph is built
    worst = 0
    for r in range(1, 8):
        m = 2 * r
        while math.comb(m, r) <= MAX_DENSE_ORDER:
            k, q, _ = _hoffman_polynomial(Spectrum(_johnson_spectrum(m, r)))
            assert k == r * (m - r) and len(q) == r
            worst = max(worst, _exactness_bound(k, q))
            m += 1
    assert worst < 2**63


def neighbours(adj):
    """Each vertex's neighbours in increasing order, one row per vertex."""
    return np.array([np.flatnonzero(row) for row in adj], dtype=np.intp).reshape(len(adj), -1)


def dense_hoffman(adj, q, dtype):
    """tr H_t(A) for 1 <= t < D, and Q(A) = H_D(A), by dense products in dtype."""
    a, h, traces = adj.astype(dtype), np.eye(len(adj), dtype=dtype), []
    for c in q:
        h = h @ a + c * np.eye(len(adj), dtype=dtype)
        traces.append(int(np.trace(h)))
    return traces[:-1], h


#: the stated families where dense products are quick and float32 is exact:
#: all but the six Johnson graphs of 252 vertices or more, whose exactness
#: bounds are 2^24 or more
DENSE_FAMILIES = [e for e in STATED_FAMILIES if parse_expression(e).n <= 250]


@pytest.mark.parametrize("expr", DENSE_FAMILIES)
def test_float32_products_equal_float64(expr):
    # dense float32 Horner products agree bit for bit with float64 and int64
    # ones; the neighbour-list row of Q(A) at every vertex equals theirs, and
    # the diagonal entries summed over all vertices equal their traces
    d = parse_expression(expr)
    _, q, _ = _hoffman_polynomial(Spectrum(d.provenance.exact))
    adj = d.provenance.graph.adj
    want_traces, want_rows = dense_hoffman(adj, q, np.int64)
    for dtype in (np.float32, np.float64):
        traces, rows = dense_hoffman(adj, q, dtype)
        assert traces == want_traces and np.array_equal(rows, want_rows), (expr, dtype)
    nbrs, traces = neighbours(adj), [0] * (len(q) - 1)
    for v in range(d.n):
        diag, row = _hoffman_row(nbrs, q, v)
        assert row.dtype == np.int64 and np.array_equal(row, want_rows[v]), (expr, v)
        traces = [t + x for t, x in zip(traces, diag)]
    assert traces == want_traces


#: Paley's orders: 9 and the primes up to 197 that are 1 mod 4
PALEY_Q = [q for q in range(5, 200) if q == 9 or (q % 4 == 1 and all(q % p for p in range(2, q)))]


def built_graphs():
    """Every graph the package's builders, combinators, from_edges and g6_decode freeze
    through Graph._built."""
    pet, ico = petersen(), icosahedron()
    yield from (complete(n) for n in range(1, 41))
    yield from (cycle(n) for n in range(3, 41))
    yield from (johnson(m, r) for m in range(2, 15) for r in range(1, m // 2 + 1))
    yield from (paley(q) for q in PALEY_Q)
    yield from (pet, ico, empty(4), complement(pet), disjoint_union(pet, ico),
                cartesian_product(cycle(5), complete(3)), closed_blowup_graph(pet, 3),
                ico.relabeled(np.random.default_rng(1).permutation(12)))
    rng = random.Random(23)
    randoms = [random_graph(n, rng) for n in (1, 2, 3, 7, 12, 40, 70)]
    yield from randoms
    yield from (Graph.from_edges(1, []), Graph.from_edges(4, [(0, 1), (1, 0), (3, 2), (0, 1)]))
    # the short and the long graph6 order forms, and a line with its header
    yield from (g6_decode(g6_encode(g)) for g in (*randoms, pet, johnson(12, 2)))
    yield g6_decode(">>graph6<<" + g6_encode(ico) + "\n")


def test_builders_own_symmetric_matrices():
    # the oracle for the symmetry compare the builders, from_edges and g6_decode
    # skip: each matrix is a read-only bool array with no writable base,
    # symmetric and loopless, and the validating constructor rebuilds the same
    # graph from a copy
    for g in built_graphs():
        a = g.adj
        assert a.dtype == bool and a.base is None and not a.flags.writeable, g
        assert not a.diagonal().any() and np.array_equal(a, a.T), g
        assert Graph(a.copy()) == g


def quadratic_sum(stated, coeffs):
    """sum_i m_i h(theta_i) in Quadratic arithmetic, h(x) = x^t + c_1 x^(t-1) + .. + c_t
    for coeffs (c_1, .., c_t), term by term: the oracle for the integer power sums."""
    total = Quadratic(0)
    for v, m in stated.entries:
        h = Quadratic(1)
        for c in coeffs:
            h = h * v + c
        total = total + h * m
    return total


def test_integer_traces_equal_quadratic_sums():
    # every stated family the builders make, Johnson graphs up to m = 14: the
    # integer power sums and the traces formed from them are the exact sums
    spectra = [_johnson_spectrum(m, r) for m in range(2, 15) for r in range(1, m // 2 + 1)]
    spectra += [_paley(q).exact for q in PALEY_Q]
    spectra += [parse_expression(e).provenance.exact
                for e in ("complete:1", "complete:2", "complete:7", "cycle:3", "cycle:4", "cycle:5",
                          "cycle:6", "petersen", "icosahedron")]
    for exact in spectra:
        stated = Spectrum(exact)
        _, q, power_sums = _hoffman_polynomial(stated)
        assert power_sums == [quadratic_sum(stated, [0] * j).as_integer() for j in range(len(q))], exact
        traces = [sum(c * p for c, p in zip([1, *q], power_sums[t::-1])) for t in range(1, len(q))]
        assert traces == [quadratic_sum(stated, q[:t]).as_integer() for t in range(1, len(q))], exact


def test_asymmetric_builder_matrix_refused():
    # a directed strongly regular graph (Duval's (6,2,1,0,1)): out-degree 2 and
    # A^2 + A = J, so its Hoffman identity and traces fit the stated spectrum
    # 2, 0^3, (-1)^2; only the symmetry test on its neighbour lists refuses it
    adj = np.zeros((6, 6), dtype=bool)
    for v, nbrs in enumerate(((1, 2), (0, 3), (4, 5), (4, 5), (0, 3), (1, 2))):
        adj[v, nbrs] = True
    a = adj.astype(int)
    assert (a @ a + a == 1).all() and not np.array_equal(adj, adj.T)
    with pytest.raises(ValueError, match="symmetric"):
        Graph(adj)
    stated = Spectrum([(2, 1), (0, 3), (-1, 2)])
    with pytest.raises(InternalConsistencyError, match="not symmetric"):
        check_stated_spectrum(Graph._built(adj), stated, ())


@pytest.mark.parametrize("graph,stated,match", [
    (complete(4), [(3, 1), (-1, 2)], "3 values for 4 vertices"),
    (complete(1001), [(1000, 1), (-1, 994)] + [(v, 1) for v in range(6)], "beyond exact int64 sums"),
    (cycle(5), [(2, 1), (0, 4)], r"Q\(k\) = 2 is not a nonzero multiple of the order 5"),
], ids=["count", "int64", "multiple"])
def test_stated_spectrum_refusals(graph, stated, match):
    with pytest.raises(ValueError, match=match):
        check_stated_spectrum(graph, Spectrum([(Quadratic(v), m) for v, m in stated]), ())


def test_johnson_generators_by_index_arithmetic():
    # the images of (0 1) and (0 1 .. m-1), subset by subset
    for m in range(2, 13):
        for r in range(1, m // 2 + 1):
            subsets = list(combinations(range(m), r))
            index = {s: i for i, s in enumerate(subsets)}
            swap, turn = _johnson_generators(m, _subsets(m, r))
            for perm, g in (([1, 0, *range(2, m)], swap), ([*range(1, m), 0], turn)):
                assert g.tolist() == [index[tuple(sorted(perm[x] for x in s))] for s in subsets], (m, r)


def test_johnson_leaf_lists_its_subsets_once(monkeypatch):
    import blowup.families as fam

    calls = []
    monkeypatch.setattr(fam, "_subsets", lambda m, r: calls.append((m, r)) or _subsets(m, r))
    for expr in ("johnson:7,3", "petersen"):
        parse_expression(expr)
    assert calls == [(7, 3), (5, 2)]


def test_degrees_off_by_one_refused():
    # Petersen with edge 9-1 moved to 9-2 keeps its 15 = n k / 2 edges, but
    # vertex 1 has degree 2 and vertex 2 degree 4; each vertex's first
    # neighbour still falls in its own row of A
    adj = petersen().adj.copy()
    assert adj[9, 1] and not adj[9, 2]
    adj[[9, 1], [1, 9]] = False
    adj[[9, 2], [2, 9]] = True
    assert adj.sum(axis=1).tolist() == [3, 2, 4, 3, 3, 3, 3, 3, 3, 3]
    with pytest.raises(ValueError, match="degree"):
        Explicit(Graph(adj), _petersen().exact).spectrum()


@pytest.mark.parametrize("expr", STATED_FAMILIES)
def test_stated_generators_span_one_orbit(expr):
    # the builders' automorphisms hold, and one row decides Q(A); for
    # johnson:14,7 that is 7 products of one row, not of 3,432
    d = parse_expression(expr)
    graph, generators = d.provenance.graph, d.provenance.generators
    assert generators and _orbits(d.n, generators) == ([0], [d.n])
    assert verdict(graph, d.provenance.exact, generators) == verdict(graph, d.provenance.exact, ()) is None


def test_johnson_14_7_parse_memory():
    # the check reads A once, as its neighbour lists: the parse peaks near
    # 35 MiB traced, where one float64 copy of A alone is 94 MB
    tracemalloc.start()
    try:
        parse_expression("johnson:14,7")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_complete_3000_parse_memory():
    # the neighbour lists are made in place and gathered as they lie, so the
    # parse peaks near 215 MiB traced; a second n k copy would add 72 MB
    tracemalloc.start()
    try:
        parse_expression("complete:3000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250 * 2**20


def test_orbits_of_one_rotation():
    # the icosahedron's turn about the axis through 0 and 11 alone: four orbits
    rho = _icosahedron().generators[0]
    assert _orbits(12, (rho,)) == ([0, 1, 6, 11], [1, 5, 5, 1])
    assert _orbits(5, ()) == ([0, 1, 2, 3, 4], [1] * 5)
    # the traces weigh each orbit by its size: with Q = (x + 1)(x^2 - 5),
    # tr(A + I) = 12, tr(A^2 + A - 5I) = 60 - 60, and Q(A) = (Q(5)/12) J = 10 J
    _, q, _ = _hoffman_polynomial(Spectrum(_icosahedron().exact))
    assert q == [1, -5, -5]
    nbrs, traces = neighbours(icosahedron().adj), [0, 0]
    for v, size in zip(*_orbits(12, (rho,))):
        diag, row = _hoffman_row(nbrs, q, v)
        assert diag == [1, 0] and row.shape == (12,) and (row == 10).all()
        traces = [t + size * x for t, x in zip(traces, diag)]
    assert traces == [12, 0]


@pytest.mark.parametrize("generator", [
    np.array([1, 0, 2, 3, 4, 5, 6, 7, 8, 9]),  # a transposition, not an automorphism
    np.array([0, 0, 2, 3, 4, 5, 6, 7, 8, 9]),  # not a permutation
    np.arange(9),  # a permutation of too few vertices
])
def test_stated_non_automorphism_refused(generator):
    # a wrong hint is a bug in the package, not a wrong spectrum
    explicit = _petersen()
    with pytest.raises(InternalConsistencyError, match="automorphism"):
        Explicit(explicit.graph, explicit.exact, (*explicit.generators, generator)).spectrum()


def relabel(adj, perm):
    """The graph with vertex i renamed perm[i]."""
    out = np.empty_like(adj)
    out[np.ix_(perm, perm)] = adj
    return out


#: stated families of at most 60 vertices where every 2-switch changes the
#: spectrum: a complete graph has no 2-switch, and one of a short cycle or of
#: the octahedron J(4,2) can give an isomorphic graph
SWITCHED_FAMILIES = [e for e in STATED_FAMILIES if parse_expression(e).n <= 60
                     and not e.startswith(("complete:", "cycle:")) and not e.endswith(",1")
                     and e not in ("johnson:4,2", "paley:5")]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.sampled_from(SWITCHED_FAMILIES), st.data())
def test_relabelled_family_and_its_two_switch(expr, data):
    # a relabelled family passes with conjugated generators; after one
    # degree-preserving 2-switch it is refused, with and without them
    explicit = parse_expression(expr).provenance
    n = explicit.graph.n
    perm = np.array(data.draw(st.permutations(range(n))))
    inverse = np.argsort(perm)
    adj = relabel(explicit.graph.adj, perm)
    generators = tuple(perm[g[inverse]] for g in explicit.generators)
    assert verdict(Graph(adj), explicit.exact, generators) is None
    # edges a-b and c-d become a-c and b-d
    edges = np.argwhere(adj)
    a, b = data.draw(st.sampled_from(edges.tolist()))
    c, d = edges.T
    ok = (c != a) & (c != b) & (d != a) & (d != b) & ~adj[a, c] & ~adj[b, d]
    c, d = data.draw(st.sampled_from(edges[ok].tolist()))
    adj[[a, b, c, d], [b, a, d, c]] = False
    adj[[a, c, b, d], [c, a, d, b]] = True
    switched = Graph(adj)
    with pytest.raises((ValueError, InternalConsistencyError)):
        Explicit(switched, explicit.exact, generators).spectrum()
    with pytest.raises(ValueError):
        Explicit(switched, explicit.exact).spectrum()


def test_two_switch_of_johnson_40_2_refused():
    # a degree-preserving 2-switch of J(40,2) keeps its order, degree and
    # tr H_1(A); only Q(A) tells it apart
    stated = _johnson_spectrum(40, 2)
    index = {s: i for i, s in enumerate(combinations(range(40), 2))}
    a, b, c, d = (index[s] for s in ((0, 1), (0, 2), (3, 4), (3, 5)))
    adj = johnson(40, 2).adj.copy()
    assert adj[a, b] and adj[c, d] and not adj[a, c] and not adj[b, d]
    adj[[a, b, c, d], [b, a, d, c]] = False
    adj[[a, c, b, d], [c, a, d, b]] = True
    with pytest.raises(ValueError, match="not \\(Q\\(k\\)/n\\) J"):
        Explicit(Graph(adj), stated).spectrum()


def test_petersen():
    g = petersen()
    assert g.n == 10 and g.edge_count == 15 and g.triangle_count() == 0
    d = parse_expression("petersen")
    assert exact_entries(d) == ((Quadratic(3), 1), (Quadratic(1), 5), (Quadratic(-2), 4))


# -- paley ---------------------------------------------------------------------


def test_paley_prime():
    for q in (5, 13, 17):
        g = paley(q)
        assert g.n == q
        assert (g.adj.sum(axis=1) == (q - 1) // 2).all()
        d = parse_expression(f"paley:{q}")
        assert d.spectrum.allclose(eigen_spectrum(g))


def test_paley_9():
    d = parse_expression("paley:9")
    assert d.n == 9
    assert exact_entries(d) == ((Quadratic(4), 1), (Quadratic(1), 4), (Quadratic(-2), 4))
    assert isinstance(d.provenance, Explicit)


def test_paley_13_conference_values():
    d = parse_expression("paley:13")
    theta = Quadratic(Fraction(-1, 2), Fraction(1, 2), 13)
    tau = Quadratic(Fraction(-1, 2), Fraction(-1, 2), 13)
    assert exact_entries(d) == ((Quadratic(6), 1), (theta, 6), (tau, 6))


def test_paley_matches_pair_loop():
    # i ~ j when i - j is a nonzero square mod q, by Euler's criterion pair by pair
    for q in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113, 137, 149, 157, 173, 181, 193,
              197, 401):
        want = np.zeros((q, q), dtype=bool)
        for i in range(q):
            for j in range(i + 1, q):
                want[i, j] = want[j, i] = pow((i - j) % q, (q - 1) // 2, q) == 1
        assert paley(q).adj.tobytes() == want.tobytes(), q


def test_paley_5_is_pentagon():
    # residues mod 5 are {1, 4}, the cycle steps
    from blowup.graphs import cycle

    assert paley(5) == cycle(5)


def test_paley_rejects():
    with pytest.raises(ValueError, match="prime"):
        paley(7)  # 7 = 3 mod 4
    with pytest.raises(ValueError, match="prime"):
        paley(15)  # not a prime power we support
    for q in (1, -3):  # 1 mod 4, but not primes
        with pytest.raises(ValueError, match="prime"):
            paley(q)


# -- srg ----------------------------------------------------------------------


def test_srg_counting_identity_enforced():
    with pytest.raises(InfeasibleSrgParameters):
        SrgParams(10, 3, 1, 1)


def test_srg_integer_spectra():
    cases = {
        (9, 4, 1, 2): ((4, 1), (1, 4), (-2, 4)),
        (10, 3, 0, 1): ((3, 1), (1, 5), (-2, 4)),
        (57, 24, 11, 9): ((24, 1), (5, 18), (-3, 38)),
        (125, 72, 45, 36): ((72, 1), (12, 20), (-3, 104)),
        (243, 132, 81, 60): ((132, 1), (24, 22), (-3, 220)),
    }
    for params, expect in cases.items():
        d = srg(params)
        assert exact_entries(d) == tuple((Quadratic(v), m) for v, m in expect)
        assert d.n == params[0]


def test_srg_moment_identities():
    for params in [(9, 4, 1, 2), (10, 3, 0, 1), (57, 24, 11, 9),
                   (125, 72, 45, 36), (243, 132, 81, 60), (13, 6, 2, 3)]:
        v, k = params[0], params[1]
        d = srg(params)
        total = Quadratic(0)
        first = Quadratic(0)
        second = Quadratic(0)
        for val, m in d.spectrum.entries:
            total = total + m
            first = first + val * m
            second = second + val * val * m
        assert total == Quadratic(v)
        assert first == Quadratic(0)
        assert second == Quadratic(v * k)


def test_srg_feasibility_conditions():
    # srg(28,9,0,4) passes counting and integrality, but g = 6 gives the
    # absolute bound g(g+3)/2 = 27 < 28
    with pytest.raises(InfeasibleSrgParameters, match="absolute bound"):
        parse_expression("srg:28,9,0,4")
    # r = 2, s = -15: (s+1)(k+s+2rs) = 336 > (k+s)(r+1)^2 = 324
    with pytest.raises(InfeasibleSrgParameters, match="Krein"):
        parse_expression("srg:154,51,8,21")
    # graphs that exist: the table's three, Clebsch, Schlaefli (absolute
    # bound tight at 27 = 27), Paley 13 (conference), and imprimitive ones
    # (2 K3, K_{3,3}) that the primitive-only conditions must not reject
    for params in [(57, 24, 11, 9), (125, 72, 45, 36), (243, 132, 81, 60), (16, 5, 0, 2),
                   (27, 16, 10, 8), (13, 6, 2, 3), (6, 2, 1, 0), (6, 3, 0, 3)]:
        assert srg(params).n == params[0]


def test_srg_conference_rejections():
    # counting identity holds but the conference condition fails
    with pytest.raises(InfeasibleSrgParameters):
        parse_expression("srg:13,4,1,1")
    # square discriminant but fractional multiplicities
    with pytest.raises(InfeasibleSrgParameters,
                       match=r"^multiplicity 77/5 for eigenvalue 1 is not a nonnegative integer$"):
        parse_expression("srg:22,7,0,3")


# -- drg -----------------------------------------------------------------------


def test_intersection_array_validation():
    with pytest.raises(InfeasibleIntersectionArray):
        IntersectionArray((3, 2), (2, 1))  # c1 != 1
    with pytest.raises(InfeasibleIntersectionArray):
        IntersectionArray((2, 3), (1, 1))  # b increasing
    with pytest.raises(InfeasibleIntersectionArray):
        IntersectionArray((3, 2), (1, 0))  # c must stay positive
    with pytest.raises(InfeasibleIntersectionArray, match=r"^valency k_2 = 15/2 is not a positive integer$"):
        IntersectionArray((5, 3), (1, 2))
    arr = IntersectionArray((3, 2), (1, 1))
    assert arr.n == 10
    assert arr.valencies() == (1, 3, 6)
    d = parse_expression("drg:3,2;1,1")
    assert d.name == "drg:3,2;1,1"
    assert d.provenance == arr


def test_drg_petersen_matches_srg():
    # diameter 2: {k, k-lambda-1; 1, mu} must agree with the srg route
    from_arr = parse_expression("drg:3,2;1,1")
    from_srg = parse_expression("srg:10,3,0,1")
    assert exact_entries(from_arr) == exact_entries(from_srg)


def test_drg_gosset():
    d = parse_expression("gosset")
    assert d.name == "gosset"
    assert d.n == 56
    assert exact_entries(d) == (
        (Quadratic(27), 1),
        (Quadratic(9), 7),
        (Quadratic(-1), 27),
        (Quadratic(-3), 21),
    )


def test_drg_quadratic_branch_c5():
    # pentagon {2,1;1,1}: eigenvalues 2 and (-1 +- sqrt5)/2
    d = parse_expression("drg:2,1;1,1")
    assert d.n == 5
    theta = Quadratic(Fraction(-1, 2), Fraction(1, 2), 5)
    tau = Quadratic(Fraction(-1, 2), Fraction(-1, 2), 5)
    assert exact_entries(d) == ((Quadratic(2), 1), (theta, 2), (tau, 2))


def test_drg_float_branch_c7():
    # heptagon {2,1,1;1,1,1}: minimal polynomial of degree 3, floats expected
    d = parse_expression("drg:2,1,1;1,1,1")
    assert d.n == 7
    assert not d.spectrum.is_exact
    expect = sorted((2 * math.cos(2 * math.pi * j / 7) for j in range(7)), reverse=True)
    assert np.allclose(d.spectrum.float_values(), expect, atol=1e-8)


def test_drg_large_cycles_match_cosines():
    # residuals of degree up to 100; in C_64 the float root 2 sin(pi/32) = 0.196
    # lies next to the integer root 0 and must not take its place
    for n in (59, 64, 200, 201):
        d = n // 2
        c = (1,) * (d - 1) + ((1,) if n % 2 else (2,))
        desc = drg((2,) + (1,) * (d - 1), c)
        assert desc.n == n
        expect = sorted((2 * math.cos(2 * math.pi * j / n) for j in range(n)), reverse=True)
        assert np.allclose(desc.spectrum.float_values(), expect, atol=1e-12), n


def test_drg_c2001_parses():
    # diameter 1000: roots are tested by the recurrence, not an expanded polynomial
    n, d = 2001, 1000
    expr = "drg:2" + ",1" * (d - 1) + ";" + ",".join(["1"] * d)
    desc = parse_expression(expr)
    assert desc.n == n
    expect = sorted((2 * math.cos(2 * math.pi * j / n) for j in range(n)), reverse=True)
    assert np.allclose(desc.spectrum.float_values(), expect, atol=1e-12)


@pytest.mark.parametrize("b,c", [
    ((3, 2), (1, 1)), ((2, 1, 1, 1, 1), (1, 1, 1, 1, 2)), ((27, 10, 1), (1, 10, 27)),
])
def test_charpoly_remainder_matches_long_division(b, c):
    # the remainder's recurrence against the intersection matrix's
    # characteristic polynomial, expanded by numpy and rounded, divided by
    # t^2 - s t + p by long division; at an integer r, u + r v is P(r)
    arr = IntersectionArray(b, c)
    a = [b[0] - x - y for x, y in zip((*b, 0), (0, *c))]
    coeffs = [int(x) for x in np.rint(np.poly(np.diag(a) + np.diag(b, 1) + np.diag(c, -1)))]
    for s in range(-3, 4):
        for p in range(-3, 4):
            rem = coeffs[:]
            for i in range(len(rem) - 2):
                rem[i + 1] += s * rem[i]
                rem[i + 2] -= p * rem[i]
            assert arr._charpoly_mod(s, p) == (rem[-1], rem[-2]), (s, p)
    for r in range(-b[0] - 1, b[0] + 2):
        u, v = arr._charpoly_mod(2 * r, r * r)
        assert u + r * v == sum(x * r ** (len(coeffs) - 1 - i) for i, x in enumerate(coeffs)), r


def test_drg_candidates_face_a_divisibility_test_first():
    # with b0 = 10^12, tol = 2^-40 b0 is about 0.9, so every solved root is an
    # integer and a pair candidate; each factor's value at z = 4 b0 + 2 must
    # divide P(z), an O(1) test that rejects them all, where the exact O(d)
    # big-integer test on every candidate takes several seconds. The roots
    # stay floats, and order 2^52 refuses them
    d = 1000
    expr = "drg:" + ",".join(["1000000000000"] + ["999999999999"] * (d - 1)) + ";" + ",".join(["1"] * d)
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        parse_expression(expr)
    assert time.perf_counter() - t0 < 2.0


def test_drg_cycles_exact_where_quadratic():
    # C_n has the roots 2 cos(2 pi j / n), of degree phi(n)/2 over Q at j = 1,
    # so every root is rational or quadratic exactly when phi(n) <= 4; the
    # other cycles keep their roots of degree 3 or more as floats
    for n in range(3, 61):
        d = n // 2
        desc = drg((2,) + (1,) * (d - 1), (1,) * (d - 1) + (2 - n % 2,))
        expect = sorted((2 * math.cos(2 * math.pi * j / n) for j in range(n)), reverse=True)
        assert np.allclose(desc.spectrum.float_values(), expect, atol=1e-12), n
        assert desc.spectrum.is_exact == (n in (3, 4, 5, 6, 8, 10, 12)), n


def test_drg_dodecagons_exact():
    # the generalized dodecagon of order (s, 1): eigenvalues 2s, s - 1 +- sqrt(3s),
    # s - 1 +- sqrt(s), s - 1 and -2, in up to two quadratic fields, with exact
    # multiplicities summing to n; s = 1 is C_12
    for s in range(1, 31):
        desc = drg((2 * s,) + (s,) * 5, (1,) * 5 + (2,))
        assert desc.spectrum.is_exact, s
        assert desc.n == 1 + 2 * sum(s**j for j in range(1, 6)) + s**6
        assert sum(m for _, m in desc.spectrum.entries) == desc.n, s
        values = {Quadratic(2 * s), Quadratic(s - 1), Quadratic(-2)}
        values |= {Quadratic(s - 1, sign, r) for sign in (1, -1) for r in (s, 3 * s)}
        assert {v for v, _ in desc.spectrum.entries} == values, s


@pytest.mark.parametrize("t", [10**6, 10**9, 10**12, 10**16])
def test_drg_conference_arrays_stay_exact(t):
    # {2t, t; 1, t} is srg(4t+1, 2t, t-1, t), eigenvalues 2t and (-1 +- sqrt(4t+1))/2;
    # its solved roots are off by about 1e-10 at t = 10^12 and their product
    # by 4e-4, inside windows that scale with b0. At t = 10^16 float64 cannot
    # hold a_1 = t - 1, the solved pair sums to -0.5, and the exact power sums
    # of the roots left after 2t give its sum and product
    d = drg((2 * t, t), (1, t))
    half = Fraction(1, 2)
    assert exact_entries(d) == ((Quadratic(2 * t), 1), (Quadratic(-half, half, 4 * t + 1), 2 * t),
                                (Quadratic(-half, -half, 4 * t + 1), 2 * t))


@pytest.mark.parametrize("d,radicands", [(4, (2,)), (6, (3, 1))])
def test_drg_large_polygons_stay_exact(d, radicands):
    # the generalized octagon and dodecagon of order (s, 1) at s = 10^8, where
    # sqrt(s) = 10^4: one quadratic pair s - 1 +- sqrt(2s) or s - 1 +- sqrt(3s)
    # is left after the integer roots, and its sum and product come from the
    # exact power sums; floats of size 2s would miss the product by whole units
    s = 10**8
    desc = drg((2 * s,) + (s,) * (d - 1), (1,) * (d - 1) + (2,))
    assert desc.spectrum.is_exact
    assert sum(m for _, m in desc.spectrum.entries) == desc.n
    values = {Quadratic(2 * s), Quadratic(s - 1), Quadratic(-2)}
    values |= {Quadratic(s - 1, sign, r * s) for sign in (1, -1) for r in radicands}
    assert {v for v, _ in desc.spectrum.entries} == values


def test_drg_complete_graph_array():
    d = parse_expression("drg:4;1")
    assert exact_entries(d) == ((Quadratic(4), 1), (Quadratic(-1), 4))


def test_drg_johnson_7_2_array():
    # J(7,2) as a distance regular graph: {10, 4; 1, 4}
    d = parse_expression("drg:10,4;1,4")
    assert exact_entries(d) == exact_entries(parse_expression("johnson:7,2"))


def test_drg_root_search_is_not_a_scan_over_b0():
    t0 = time.perf_counter()
    d = parse_expression("drg:1000000000;1")
    assert time.perf_counter() - t0 < 1.0
    assert exact_entries(d) == ((Quadratic(10**9), 1), (Quadratic(-1), 10**9))


# -- table row 24 -----------------------------------------------------------------


def test_taylor_co3():
    d = parse_expression("taylor-co3")
    assert d.name == "taylor-co3"
    assert d.n == 552
    assert d.provenance == IntersectionArray((275, 112, 1), (1, 112, 275))
    assert d.provenance.strength == "exact-formula"
    assert exact_entries(d) == (
        (Quadratic(275), 1),
        (Quadratic(55), 23),
        (Quadratic(-1), 275),
        (Quadratic(-5), 253),
    )
    assert d.spectrum.kth(24) == Quadratic(55)
    assert sum(v * m for v, m in d.spectrum.entries) == 0
    # regular of degree 275: second moment equals n * k
    second = sum(float(v) ** 2 * m for v, m in d.spectrum.entries)
    assert second == 552 * 275


# -- composition ------------------------------------------------------------------


def test_union_descriptor_explicit():
    d = parse_expression("union:petersen+complete:3")
    assert d.n == 13
    assert isinstance(d.provenance, Derived)
    assert d.provenance.strength == "verified"
    assert d.spectrum.kth(1) == Quadratic(3)
    assert d.spectrum.kth(2) == Quadratic(2)
    assert d.provenance.to_json_obj()["parts"][1] == {
        "name": "complete:3", "n": 3, "provenance": {"kind": "explicit", "graph6": "Bw"}}


def test_union_descriptor_formula_operand():
    d = parse_expression("union:taylor-co3+complete:2")
    assert d.n == 554
    assert d.provenance.strength == "exact-formula"
    assert d.spectrum.kth(1) == Quadratic(275)
    # a formula operand is weaker than an explicit one
    # (a union's right operand holds no '+', so the nested union comes first)
    for expr in ("union:srg:57,24,11,9+complete:2", "union:union:taylor-co3+complete:2+srg:57,24,11,9"):
        assert parse_expression(expr).provenance.strength == "exact-formula"


def test_complement_descriptor():
    # complement spectra come from the eigensolver, so values are floats
    d = parse_expression("complement:complete:4")
    assert float(d.spectrum.kth(1)) == pytest.approx(0.0, abs=1e-10)
    assert isinstance(d.provenance, Explicit)
    with pytest.raises(ValueError):
        parse_expression("complement:srg:57,24,11,9")
    # a derived tree with explicit leaves is built into a graph first
    want = complement(disjoint_union(closed_blowup_graph(petersen(), 2), complete(3)))
    assert parse_expression("complement:union:blowup:petersen,2+complete:3").provenance.graph == want
    with pytest.raises(ValueError, match="explicit"):
        parse_expression("complement:blowup:gosset,2")


def test_blowup_descriptor():
    d = parse_expression("blowup:cycle:5,2")
    assert d.n == 10
    assert isinstance(d.provenance, Derived)
    assert d.provenance.strength == "verified"
    assert d.spectrum.kth(1) == Quadratic(5)
    assert d.provenance.to_json_obj()["t"] == 2
    # a derived spectrum is the one its parts give
    assert d.spectrum == blowup_transform(parse_expression("cycle:5").spectrum, 2)


def test_descriptor_spectrum_comes_from_provenance():
    # C5's parameters with a made-up 25-vertex spectrum would certify
    # c_4 >= 7/25 = 0.28 at exact-formula, above the 0.2697 record
    fake = Spectrum([(6, 4), (0, 17), (-6, 4)])
    leaf = SrgParams(5, 2, 0, 1)
    with pytest.raises(TypeError):
        SpectralDescriptor("fake", 25, fake, leaf)
    with pytest.raises(TypeError):
        SpectralDescriptor("fake", leaf, spectrum=fake)
    assert list(inspect.signature(SpectralDescriptor).parameters) == ["name", "provenance"]
    assert SpectralDescriptor("c5", leaf).spectrum.n == 5
    # every grammar leaf and operator: the spectrum is the provenance's own
    for expr in ["complete:4", "cycle:5", "cycle:9", "johnson:6,2", "paley:13", "petersen",
                 "icosahedron", "gosset", "srg:16,5,0,2", "drg:2,1,1;1,1,1", "g6:Ch",
                 "complement:petersen", "union:petersen+gosset", "blowup:srg:10,3,0,1,3"]:
        d = parse_expression(expr)
        assert d.spectrum == d.provenance.spectrum(), expr
        assert d.n == d.spectrum.n, expr
    d = parse_expression("taylor-co3")
    assert d.spectrum == d.provenance.spectrum()


# -- grammar -----------------------------------------------------------------------


def test_parse_named_families():
    assert parse_expression("complete:5").n == 5
    assert parse_expression("cycle:6").n == 6
    assert parse_expression("johnson:6,2").n == 15
    assert parse_expression("paley:9").n == 9
    assert parse_expression("petersen").n == 10
    assert parse_expression("icosahedron").n == 12
    assert parse_expression("gosset").n == 56
    assert parse_expression("srg:57,24,11,9").n == 57
    assert parse_expression("drg:27,10,1;1,10,27").n == 56


def test_parse_g6():
    s = g6_encode(petersen())
    d = parse_expression(f"g6:{s}")
    assert d.n == 10
    assert d.spectrum.allclose(parse_expression("petersen").spectrum)


def test_parse_operators():
    d = parse_expression("union:complete:3+complete:3")
    assert d.n == 6
    assert d.spectrum.kth(2) == Quadratic(2)
    d = parse_expression("complement:complete:4")
    assert float(d.spectrum.kth(1)) == pytest.approx(0.0, abs=1e-10)
    d = parse_expression("blowup:petersen,2")
    assert d.n == 20
    d = parse_expression("union:blowup:complete:2,2+petersen")
    assert d.n == 14


def test_parse_errors_have_positions():
    for text, frag in [
        ("", "empty"),
        ("nosuch:5", "unknown"),
        ("johnson:x,2", "integer"),
        ("complete:", "integer"),
        ("srg:9,4,1", "srg"),
        ("complete:3,4", "complete takes exactly 1 integer n"),
        ("johnson:5", "johnson takes exactly 2 integers m,r"),
        ("srg:", "srg takes exactly 4 integers v,k,l,m"),
        ("blowup:petersen", "blowup"),
        ("union:petersen", "union"),
        ("g6:B", "graph6"),
    ]:
        with pytest.raises(GraphParseError) as ei:
            parse_expression(text)
        assert frag.lower() in str(ei.value).lower(), (text, str(ei.value))
    # offsets count from the text as given, leading whitespace included
    with pytest.raises(GraphParseError) as ei:
        parse_expression("  complete:x")
    assert ei.value.offset == 11
    assert parse_expression(" petersen ").name == "petersen"
    # syntactically fine but out of a constructor's domain: plain ValueError
    # naming the constraint
    with pytest.raises(ValueError, match="n >= 3"):
        parse_expression("cycle:2")


def test_parse_offset_points_into_text():
    with pytest.raises(GraphParseError) as ei:
        parse_expression("union:complete:3+johnson:z,2")
    msg = str(ei.value)
    assert "offset" in msg
    # 'z' sits at index 25 of the whole expression
    assert "(at offset 25)" in msg


def test_g6_literal_is_under_the_dense_ceiling(monkeypatch):
    # like every other explicit leaf, a graph6 literal is refused above the
    # ceiling; g6_decode refuses it before the payload is read
    import blowup.graphs as graphs

    monkeypatch.setattr(graphs, "MAX_DENSE_ORDER", 10)
    for text in ("g6:JhCGGC@?K?_", "cycle:11", "complement:g6:JhCGGC@?K?_"):
        with pytest.raises(ValueError, match="ceiling 10"):
            parse_expression(text)
    assert parse_expression("g6:Ch").n == 4


def nested(op, depth):
    """op applied depth times around petersen, each operand nested in the one before."""
    prefix, suffix = {"complement": ("complement:", ""), "union": ("union:", "+complete:1"),
                      "blowup": ("blowup:", ",1")}[op]
    return prefix * depth + "petersen" + suffix * depth


def test_nesting_is_capped():
    # deeper nesting would exhaust the interpreter's stack in the parser or
    # in the provenance's JSON; beyond the cap it is a parse error
    import blowup.families as fam

    cap = fam._MAX_NESTING
    assert 2 < cap < 330
    for op in ("complement", "union", "blowup"):
        d = parse_expression(nested(op, cap))
        assert d.name == nested(op, cap)
        with pytest.raises(GraphParseError, match=f"more than {cap} operators") as ei:
            parse_expression(nested(op, cap + 1))
        # the offset is where the operand one level too deep starts
        assert ei.value.offset == (len(op) + 1) * (cap + 1), op
    assert parse_expression(nested("union", cap)).n == 10 + cap


# every head and operator of the grammar, nested where they nest
GRAMMAR_CORPUS = (
    "complete:5", "cycle:7", "johnson:7,3", "paley:13", "srg:16,5,0,2",
    "petersen", "icosahedron", "gosset", "taylor-co3",
    "drg:3,2;1,1", "drg:2,1,1;1,1,1", "g6:Ch", "union:petersen+cycle:5",
    "complement:johnson:6,2", "blowup:srg:16,5,0,2,3",
    "union:blowup:petersen,2+complement:g6:Ch", "blowup:union:gosset+paley:9,4",
)


def test_every_name_rebuilds_its_descriptor():
    import blowup.families as fam
    from blowup.bounds import reproduce_table

    heads = {e.partition(":")[0] for e in GRAMMAR_CORPUS}
    assert set(fam._PRESETS) | set(fam._INTEGER_HEADS) <= heads
    assert {"drg", "g6", "union", "complement", "blowup"} <= heads
    table = [c.base for row in reproduce_table() for c in row.certificates]
    for d in table + [parse_expression(e) for e in GRAMMAR_CORPUS]:
        again = parse_expression(d.name)
        assert again.name == d.name
        assert again.spectrum == d.spectrum, d.name
        assert again.provenance.to_json_obj() == d.provenance.to_json_obj(), d.name


def test_drg_order_beyond_float_integrality_is_refused():
    # above 2^52 every float64 is an integer, so float multiplicities would
    # pass the integrality test whatever they are; the array is refused first
    d = 200
    expr = "drg:3" + ",2" * (d - 1) + ";" + ",".join(["1"] * d)
    with pytest.raises(InfeasibleIntersectionArray, match=r"at least 2\^52"):
        parse_expression(expr)
    # all roots integer: exact arithmetic throughout, so size is no obstacle
    q60 = drg(range(60, 0, -1), range(1, 61))
    assert q60.n == 2**60
    assert q60.spectrum.is_exact


# -- trace identities of the formula leaves ----------------------------------------


def srg_sets(v_max):
    """(v, k, lambda, mu) with v <= v_max, 1 <= k < v, 0 <= lambda < k and
    0 <= mu <= k that pass the counting identity, which refuses every other set."""
    for v in range(2, v_max + 1):
        for k in range(1, v):
            for lam in range(k):
                for mu in range(k + 1):
                    if k * (k - lam - 1) == (v - k - 1) * mu:
                        yield v, k, lam, mu


def drg_arrays():
    """(b, c, order) of the cycles C_3..C_60, J(m, r) for m <= 20, H(d, q) for
    d, q <= 6, the Gosset and Taylor graphs, Petersen and the icosahedron."""
    for n in range(3, 61):
        d = n // 2
        yield (2, *[1] * (d - 1)), (*[1] * (d - 1), 2 - n % 2), n
    for m in range(2, 21):
        for r in range(1, m // 2 + 1):
            yield ([(r - i) * (m - r - i) for i in range(r)], [i * i for i in range(1, r + 1)],
                   math.comb(m, r))
    for d in range(1, 7):
        for q in range(2, 7):
            yield [(d - i) * (q - 1) for i in range(d)], range(1, d + 1), q**d
    yield from (((27, 10, 1), (1, 10, 27), 56), ((275, 112, 1), (1, 112, 275), 552),
                ((3, 2), (1, 1), 10), ((5, 2, 1), (1, 2, 5), 12))


def radicand_sums(values):
    """Exact sums of Quadratic values, one per radicand (0 for the rationals):
    values from different quadratic fields do not add in one Quadratic."""
    sums = {}
    for v in values:
        sums[v.d] = sums.get(v.d, 0) + v
    return sums


def test_formula_leaves_have_trace_zero():
    # the oracle for the trace test the descriptor no longer runs: for a
    # k-regular graph on n vertices, sum m = n, sum m theta = 0 and
    # sum m theta^2 = n k, exactly over the exact values, summed per
    # radicand since one cycle (C_24, C_40, ...) has roots in Q(sqrt2) and
    # Q(sqrt3) and so on; distinct square roots are linearly independent, so
    # a sum is rational when each radicand's sqrt part is 0. A cycle's roots
    # of degree above two are floats, summed to 1e-9
    leaves = []
    for v, k, lam, mu in srg_sets(60):
        try:
            leaves.append((srg((v, k, lam, mu)), v, k))
        except InfeasibleSrgParameters:
            pass
    assert len(leaves) > 1000
    leaves += [(drg(b, c), n, b[0]) for b, c, n in drg_arrays()]
    for d, n, k in leaves:
        exact = [(v, m) for v, m in d.spectrum.entries if isinstance(v, Quadratic)]
        floats = [(v, m) for v, m in d.spectrum.entries if not isinstance(v, Quadratic)]
        assert sum(m for _, m in d.spectrum.entries) == n, d.name
        s1 = radicand_sums(v * m for v, m in exact).values()
        s2 = radicand_sums(v * v * m for v, m in exact).values()
        if floats:
            t1 = math.fsum([*map(float, s1), *(v * m for v, m in floats)])
            t2 = math.fsum([*map(float, s2), *(v * v * m for v, m in floats)])
            assert abs(t1) <= 1e-9 and abs(t2 - n * k) <= 1e-9 * n * k, d.name
        else:
            assert not any(s.b for s in [*s1, *s2]), d.name
            assert sum(s.a for s in s1) == 0 and sum(s.a for s in s2) == n * k, d.name
