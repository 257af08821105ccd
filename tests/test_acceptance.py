"""The acceptance gate: one test per shipped criterion.

Each test pins the tolerance and runtime budget it enforces; the conftest
hook prints the PASS/FAIL scoreboard after the run.
"""

import random
import time
from fractions import Fraction

import pytest

from blowup.bounds import (
    blowup_residual,
    certify,
    nikiforov_upper,
    reference_lower,
    reproduce_table,
)
from blowup.exact import Quadratic
from blowup.families import parse_expression
from blowup.graphs import Graph, complete, empty, g6_decode, g6_encode, random_graph
from blowup.search import SearchConfig, exhaustive_max, local_search
from blowup.spectra import eigen_spectrum


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    rows = reproduce_table(4, 24)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"table took {elapsed:.2f}s, budget 5s"
    assert len(rows) == 21
    assert all(r.match for r in rows)
    # row 24 is the Taylor graph's 56/552 = 7/69
    assert rows[-1].expected == Quadratic(Fraction(7, 69))
    # every certificate equals its row's exact expected value
    for r in rows:
        for c in r.certificates:
            assert c.ratio == r.expected
        places = len(r.printed.partition(".")[2])
        assert abs(float(r.expected) - float(r.printed)) <= 10.0 ** -places


def test_criterion_2_icosahedron_certificate():
    cert = certify(parse_expression("icosahedron"), 4)
    assert cert.ratio == Quadratic(Fraction(1, 12), Fraction(1, 12), 5)
    assert cert.attained
    assert abs(cert.ratio_float() - 0.26967) < 1e-5


def test_criterion_3_johnson_family_certificates():
    for k in range(6, 17):
        cert = certify(parse_expression(f"johnson:{k},2"), k)
        assert cert.ratio == Quadratic(Fraction(2 * (k - 3), k * (k - 1))), k
        assert cert.ratio_float() > 1.0 / k
        assert cert.ratio_float() > reference_lower(k)


def test_criterion_4_blowup_equivalence():
    # `blowup verify` reports the same residual: 50 graphs from
    # random.Random(20260818), n in 2..10, closed blowups with t = 1, 2, 3
    t0 = time.perf_counter()
    worst = blowup_residual()
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"worst residual {worst}"
    assert elapsed < 30.0, f"blowup sweep took {elapsed:.1f}s, budget 30s"


def test_criterion_5_srg_drg_identities():
    param_sets = [(9, 4, 1, 2), (10, 3, 0, 1), (57, 24, 11, 9),
                  (125, 72, 45, 36), (243, 132, 81, 60)]
    descriptors = [parse_expression("srg:" + ",".join(map(str, p))) for p in param_sets]
    descriptors.append(parse_expression("drg:27,10,1;1,10,27"))
    orders = [p[0] for p in param_sets] + [56]
    valencies = [p[1] for p in param_sets] + [27]
    for d, v, k in zip(descriptors, orders, valencies):
        total, first, second = Quadratic(0), Quadratic(0), Quadratic(0)
        for val, m in d.spectrum.entries:
            total = total + m
            first = first + val * m
            second = second + val * val * m
        assert total == Quadratic(v)
        assert first == Quadratic(0)
        assert second == Quadratic(v * k)
    gosset_cert = certify(parse_expression("gosset"), 8)
    johnson_cert = certify(parse_expression("johnson:8,2"), 8)
    assert gosset_cert.ratio == johnson_cert.ratio == Quadratic(Fraction(5, 28))


def test_criterion_6_exhaustive_oracles():
    r = exhaustive_max(2, 4)
    assert r.best_ratio == pytest.approx(0.5, abs=1e-12)
    g = g6_decode(r.best_graph)
    lam2 = float(eigen_spectrum(g).kth(2))
    assert (lam2 + 1.0) / g.n == pytest.approx(r.best_ratio, abs=1e-12)

    r = exhaustive_max(3, 6)
    assert r.best_ratio == pytest.approx(1 / 3, abs=1e-12)
    g = g6_decode(r.best_graph)
    lam3 = float(eigen_spectrum(g).kth(3))
    assert (lam3 + 1.0) / g.n == pytest.approx(r.best_ratio, abs=1e-12)

    t0 = time.perf_counter()
    for n in (4, 5, 6, 7):
        assert exhaustive_max(3, n).best_ratio <= 1 / 3 + 1e-9, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"n<=7 sweep took {elapsed:.0f}s, budget 600s"


def test_criterion_7_upper_bound_dominance():
    # table certificates
    for row in reproduce_table(4, 24):
        for cert in row.certificates:
            assert cert.ratio_float() <= nikiforov_upper(cert.k) + 1e-9
    # search results across methods and sizes
    results = [
        exhaustive_max(2, 5),
        exhaustive_max(3, 6),
        exhaustive_max(4, 6),
        local_search(SearchConfig(k=2, n=10, seed=3, budget=3000, restarts=2)),
        local_search(SearchConfig(k=5, n=11, seed=4, budget=3000, restarts=2)),
    ]
    for r in results:
        assert r.best_ratio <= nikiforov_upper(r.k) + 1e-9
    # certificates of random explicit graphs
    rng = random.Random(77)
    for _ in range(40):
        g = random_graph(rng.randint(2, 10), rng)
        for k in range(2, min(7, g.n + 1)):
            cert = certify(parse_expression(f"g6:{g6_encode(g)}"), k)
            assert cert.ratio_float() <= nikiforov_upper(k) + 1e-9


def test_criterion_8_seeded_anneal_floor():
    cfg = SearchConfig(k=4, n=12, method="anneal", seed=42, budget=100_000, restarts=20)
    t0 = time.perf_counter()
    first = local_search(cfg)
    second = local_search(cfg)
    elapsed = time.perf_counter() - t0
    assert first == second, "seeded anneal is not bit-reproducible"
    assert first.best_ratio >= 0.25, f"anneal plateau missed: {first.best_ratio}"
    assert elapsed < 300.0, f"two runs took {elapsed:.0f}s, budget 300s for one"


def test_criterion_9_graph6_fidelity():
    assert g6_decode("B?") == empty(3)
    assert g6_decode("Bw") == complete(3)
    for n in range(1, 6):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [p for b, p in enumerate(pairs) if (mask >> b) & 1])
            assert g6_decode(g6_encode(g)) == g
    rng = random.Random(424242)
    for _ in range(1000):
        g = random_graph(rng.randint(1, 10), rng)
        assert g6_decode(g6_encode(g)) == g
