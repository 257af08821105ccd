"""Spectrum container, the eigensolver wrapper, and the blowup transform."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from blowup.exact import Quadratic
from blowup.graphs import closed_blowup_graph, complete, cycle, empty, random_graph
from blowup.spectra import (
    Spectrum,
    blowup_transform,
    eigen_spectrum,
    eigenvalues,
    spectrum_invariant_checks,
)


def cycle_eigenvalues(n: int) -> list[float]:
    # analytic spectrum of C_n: 2 cos(2 pi j / n), an oracle independent
    # of any linear algebra
    return sorted((2 * math.cos(2 * math.pi * j / n) for j in range(n)), reverse=True)


def test_spectrum_ordering_and_merge():
    s = Spectrum([(Quadratic(1), 2), (Quadratic(3), 1), (Quadratic(1), 1)])
    assert s.n == 4
    assert s.entries[0][0] == Quadratic(3)
    assert s.entries[1] == (Quadratic(1), 3)
    assert s.kth(1) == Quadratic(3)
    assert s.kth(2) == Quadratic(1)
    assert s.kth(4) == Quadratic(1)
    with pytest.raises(ValueError):
        s.kth(5)
    with pytest.raises(ValueError):
        s.kth(0)


def test_kth_counts_multiplicity():
    s = Spectrum.from_floats([5.0, 2.0, 2.0, -1.0])
    assert s.kth(1) == 5.0
    assert s.kth(2) == 2.0
    assert s.kth(3) == 2.0
    assert s.kth(4) == -1.0


def test_eigen_spectrum_complete():
    s = eigen_spectrum(complete(6))
    expect = [5.0] + [-1.0] * 5
    assert np.allclose(s.float_values(), expect, atol=1e-10)


def test_eigen_spectrum_cycles_analytic():
    for n in range(3, 30):
        s = eigen_spectrum(cycle(n))
        assert np.allclose(s.float_values(), cycle_eigenvalues(n), atol=1e-9)


def test_eigen_spectrum_empty_and_k1():
    assert np.allclose(eigen_spectrum(empty(4)).float_values(), [0.0] * 4)
    assert eigen_spectrum(complete(1)).float_values() == [0.0]


def test_eigenvalues_read_the_lower_triangle_only():
    # a symmetric matrix, its lower triangle, and that triangle with junk
    # above the diagonal give the same bits, single or stacked, whole or at
    # one index
    rng = np.random.default_rng(7)
    for n in range(1, 31):
        x = rng.standard_normal((3, n, n))
        full = x + x.transpose(0, 2, 1)
        lower = np.tril(full)
        junk = lower + np.triu(rng.standard_normal((3, n, n)), 1)
        for a in (full, lower, junk):
            assert np.array_equal(eigenvalues(a), eigenvalues(full))
            assert np.array_equal(eigenvalues(a, n - 1), eigenvalues(full, n - 1))
            for one, want in zip(a, full):
                assert np.array_equal(eigenvalues(one), eigenvalues(want))
                assert eigenvalues(one, 0) == eigenvalues(want, 0)


def test_relabeling_invariance():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = random_graph(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        a = eigen_spectrum(g).float_values()
        b = eigen_spectrum(g.relabeled(perm)).float_values()
        assert np.allclose(a, b, atol=1e-9)


def test_invariant_checks():
    rng = random.Random(99)
    for _ in range(50):
        g = random_graph(rng.randint(2, 12), rng)
        assert spectrum_invariant_checks(g, eigen_spectrum(g)), g
    # a corrupted spectrum must fail
    g = complete(4)
    bad = Spectrum.from_floats([3.0, -1.0, -1.0, -0.5])
    assert not spectrum_invariant_checks(g, bad)


def test_blowup_transform_exact():
    # K3 spectrum {2, -1, -1}; closed 2-blowup is K6: {5, -1^5}
    s = Spectrum([(Quadratic(2), 1), (Quadratic(-1), 2)])
    b = blowup_transform(s, 2)
    assert b.n == 6
    assert b.entries == ((Quadratic(5), 1), (Quadratic(-1), 5))
    # t = 1 identity
    assert blowup_transform(s, 1) == s
    with pytest.raises(ValueError):
        blowup_transform(s, 0)


def test_blowup_transform_matches_explicit_graphs():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_graph(n, rng)
        base = eigen_spectrum(g)
        for t in (1, 2, 3, 4):
            analytic = blowup_transform(base, t).float_values()
            direct = eigen_spectrum(closed_blowup_graph(g, t)).float_values()
            assert np.allclose(analytic, direct, atol=1e-8), (n, t)


def test_blowup_transform_values():
    # entries map to t*lam + t - 1 and (t-1)*n extra -1s
    s = Spectrum([(Quadratic(Fraction(1, 2)), 1), (Quadratic(0), 1),
                  (Quadratic(Fraction(-1, 2)), 2)])
    b = blowup_transform(s, 3)
    vals = sorted(b.float_values(), reverse=True)
    expect = sorted([3 * 0.5 + 2, 3 * 0 + 2, 3 * -0.5 + 2, 3 * -0.5 + 2] + [-1.0] * 8,
                    reverse=True)
    assert np.allclose(vals, expect)


def test_display_exact():
    s = Spectrum([(Quadratic(5), 1), (Quadratic.sqrt(5), 3),
                  (Quadratic(-1), 5), (-Quadratic.sqrt(5), 3)])
    assert s.display() == "5^1 (sqrt5)^3 (-1)^5 (-sqrt5)^3"
    # every value but a nonnegative integer is parenthesised, so (2-sqrt3)^168
    # cannot be read as 2 - (sqrt3)^168
    r3 = Quadratic.sqrt(3)
    s = Spectrum([(Quadratic(6), 1), (2 + r3, 168), (Quadratic(0), 3), (2 - r3, 168),
                  (Quadratic(-1, 1, 5) / 2, 2), (Quadratic(-2), 729)])
    assert s.display() == "6^1 (2+sqrt3)^168 (-1/2+1/2*sqrt5)^2 (2-sqrt3)^168 0^3 (-2)^729"


def test_display_float_grouping():
    s = Spectrum.from_floats([2.0, 2.0 + 1e-9, -1.0])
    out = s.display()
    assert out.startswith("2.000000^2")
    assert out.endswith("-1.000000^1")


def test_allclose_and_json():
    g = cycle(7)
    s = eigen_spectrum(g)
    assert s.allclose(s)
    assert not s.allclose(eigen_spectrum(complete(7)))
    obj = s.to_json_obj()
    assert isinstance(obj, list)
    assert sum(e["mult"] for e in obj) == 7
