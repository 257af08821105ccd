"""Blowup certificates, limit ratios, reference bounds, and the table."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from blowup import bounds
from blowup.bounds import (
    best_known_ratio,
    certify,
    finite_ratio,
    limit_ratio,
    nikiforov_upper,
    reference_lower,
    reproduce_table,
)
from blowup.errors import InternalConsistencyError, TableMismatchError
from blowup.exact import Quadratic
from blowup.families import parse_expression


@pytest.fixture
def solves(monkeypatch):
    """Orders of the matrices handed to numpy.linalg.eigvalsh during a test."""
    orders = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        orders.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return orders


def test_blowup_spectrum_icosahedron():
    b = parse_expression("blowup:icosahedron,2")
    assert b.n == 24
    assert b.spectrum.entries == (
        (Quadratic(11), 1),
        (Quadratic(1, 2, 5), 3),
        (Quadratic(-1), 17),
        (Quadratic(1, -2, 5), 3),
    )


def test_blowup_t1_identity():
    d = parse_expression("icosahedron")
    assert parse_expression("blowup:icosahedron,1").spectrum == d.spectrum


def test_finite_ratio_merges_new_minus_ones():
    # C4: {2, 0, 0, -2} -> t=2 gives {5, 1, 1, -3} plus four fresh -1s.
    # The 4th largest of the merged multiset is -1, NOT the transform of
    # the base 4th eigenvalue (which would be -3).
    d = parse_expression("cycle:4")
    assert finite_ratio(d, 2, 4) == Quadratic(Fraction(-1, 8))
    assert finite_ratio(d, 2, 8) == Quadratic(Fraction(-3, 8))
    assert finite_ratio(d, 2, 2) == Quadratic(Fraction(1, 8))


def test_finite_ratio_monotone_in_t():
    d = parse_expression("icosahedron")
    vals = [float(finite_ratio(d, t, 4)) for t in range(1, 10)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    lim = limit_ratio(d.spectrum, 4)
    assert vals[-1] < float(lim.value)
    assert float(lim.value) - vals[-1] < 0.01


def test_limit_ratio_values():
    d = parse_expression("icosahedron")
    lr = limit_ratio(d.spectrum, 4)
    assert lr.attained
    assert lr.value == Quadratic(Fraction(1, 12), Fraction(1, 12), 5)
    # lambda_2(K5) = -1: ratios approach 0 from below
    k5 = parse_expression("complete:5")
    lr = limit_ratio(k5.spectrum, 2)
    assert lr.value == Quadratic(0)
    assert not lr.attained
    # lambda below -1 also gives unattained 0
    lr = limit_ratio(parse_expression("complete:3").spectrum, 3)
    assert lr.value == Quadratic(0)
    assert not lr.attained


def test_reference_bound_formulas():
    assert nikiforov_upper(2) == pytest.approx(0.5)
    assert nikiforov_upper(5) == pytest.approx(0.25)
    assert reference_lower(5) == pytest.approx(1 / 4.5)
    with pytest.raises(ValueError):
        nikiforov_upper(1)
    with pytest.raises(ValueError):
        reference_lower(4)


def test_certify_icosahedron():
    c = certify(parse_expression("icosahedron"), 4)
    assert c.ratio == Quadratic(Fraction(1, 12), Fraction(1, 12), 5)
    assert c.attained
    assert c.verification == "verified"
    assert abs(c.ratio_float() - 0.26967) < 1e-5
    assert c.to_json_obj()["ratio"]["exact"] == "1/12+1/12*sqrt(5)"


def test_certify_johnson_row_formula():
    for k in range(6, 17):
        c = certify(parse_expression(f"johnson:{k},2"), k)
        assert c.ratio == Quadratic(Fraction(2 * (k - 3), k * (k - 1)))
        assert c.ratio_float() > 1 / k
        assert c.ratio_float() > 1 / (k - 0.5)
        assert c.verification == "verified"


def test_certify_gosset_matches_johnson_at_8():
    a = certify(parse_expression("johnson:8,2"), 8)
    b = certify(parse_expression("gosset"), 8)
    assert a.ratio == b.ratio == Quadratic(Fraction(5, 28))
    assert b.verification == "exact-formula"


def test_certify_derived_strength_is_weakest_leaf():
    for expr, k, want in [
        ("union:srg:57,24,11,9+complete:3", 2, "exact-formula"),
        ("blowup:gosset,7", 8, "exact-formula"),
        ("blowup:johnson:16,2,10", 5, "verified"),
        ("union:petersen+blowup:drg:3,2;1,1,2", 3, "exact-formula"),
    ]:
        assert certify(parse_expression(expr), k).verification == want, expr


def test_validate_once_solve_counts(solves):
    # an explicit base with a stated spectrum is checked exactly, not solved;
    # the table solves only the 4x4 intersection matrices of gosset and
    # taylor-co3 to locate their roots
    reproduce_table()
    assert solves == [4, 4]
    solves.clear()
    cert = certify(parse_expression("blowup:johnson:16,2,10"), 5)
    assert solves == []
    assert cert.ratio == Quadratic(Fraction(13, 120))
    solves.clear()
    certify(parse_expression("union:petersen+icosahedron"), 3)
    assert solves == []
    # a leaf without a stated spectrum is solved once
    for expr, want in [("cycle:9", [9]), ("g6:Ch", [4]), ("complement:petersen", [10])]:
        solves.clear()
        parse_expression(expr)
        assert solves == want, expr


def test_certify_range_checks():
    with pytest.raises(ValueError):
        certify(parse_expression("icosahedron"), 0)
    with pytest.raises(ValueError):
        certify(parse_expression("icosahedron"), 13)


def test_certify_rejects_ceiling_violation(monkeypatch):
    # no descriptor can state a spectrum, so a real certificate (the
    # icosahedron's 0.2697 at k = 4) meets a ceiling lowered beneath it;
    # certify must refuse loudly
    monkeypatch.setattr(bounds, "nikiforov_upper", lambda k: 0.25)
    with pytest.raises(InternalConsistencyError, match="exceeds the proven ceiling"):
        certify(parse_expression("icosahedron"), 4)


def test_certify_k1_has_no_ceiling():
    # k = 1 has no 1/(2 sqrt(k-1)) ceiling; complete graphs approach 1
    c = certify(parse_expression("complete:50"), 1)
    assert c.ratio == Quadratic(1)


def test_table_reproduces_and_is_fast():
    t0 = time.perf_counter()
    rows = reproduce_table()
    dt = time.perf_counter() - t0
    assert len(rows) == 21
    assert dt < 5.0
    by_k = {r.k: r for r in rows}
    assert by_k[4].expected == Quadratic(Fraction(1, 12), Fraction(1, 12), 5)
    assert by_k[16].expected == Quadratic(Fraction(13, 120))
    assert by_k[24].expected == Quadratic(Fraction(7, 69))
    # row 24 rests on the Taylor graph's intersection array
    assert {c.verification for c in by_k[24].certificates} == {"exact-formula"}
    assert [c.base.provenance.to_json_obj() for c in by_k[24].certificates] == [
        {"kind": "intersection-array", "b": [275, 112, 1], "c": [1, 112, 275]}]
    # decimal strings stay within their printed precision
    for r in rows:
        places = len(r.printed.partition(".")[2])
        assert abs(float(r.expected) - float(r.printed)) <= 10 ** -places


def test_table_builds_each_source_once(monkeypatch):
    # rows 17-19, 20-21 and 22-23 each rest on one shared source
    built = []
    real = bounds.parse_expression
    monkeypatch.setattr(bounds, "parse_expression", lambda expr: built.append(expr) or real(expr))
    rows = reproduce_table()
    assert sum(len(r.certificates) for r in rows) == 23
    assert len(built) == len(set(built)) == 19
    base = {r.k: r.certificates[0].base for r in rows}
    assert base[17] is base[18] is base[19]
    assert base[20] is base[21] and base[22] is base[23]


def test_table_monotone_nonincreasing():
    rows = reproduce_table()
    vals = [float(r.expected) for r in rows]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    for r in rows:
        assert float(r.expected) < nikiforov_upper(r.k)


def test_table_subrange_and_validation():
    rows = reproduce_table(6, 8)
    assert [r.k for r in rows] == [6, 7, 8]
    with pytest.raises(ValueError):
        reproduce_table(3, 8)
    with pytest.raises(ValueError):
        reproduce_table(8, 25)


def test_table_mismatch_raises_with_rows(monkeypatch):
    printed, _, builders = bounds._TABLE_ENTRIES[7]
    monkeypatch.setitem(
        bounds._TABLE_ENTRIES, 7, (printed, Quadratic(Fraction(1, 5)), builders)
    )
    with pytest.raises(TableMismatchError) as ei:
        reproduce_table(6, 8)
    bad = [r.k for r in ei.value.rows if not r.match]
    assert bad == [7]


def test_best_known_ratio_domain():
    assert best_known_ratio(4) == Quadratic(Fraction(1, 12), Fraction(1, 12), 5)
    assert best_known_ratio(20) == Quadratic(Fraction(13, 125))
    assert best_known_ratio(3) is None
    assert best_known_ratio(25) is None
