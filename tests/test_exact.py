"""Exact arithmetic in Q(sqrt(d))."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup.exact import Quadratic, squarefree_split
from blowup.spectra import Spectrum


def test_squarefree_split_small():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(5) == (1, 5)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(180) == (6, 5)


def test_squarefree_split_identity():
    random.seed(11)
    for _ in range(200):
        n = random.randint(1, 10_000)
        s, f = squarefree_split(n)
        assert s * s * f == n
        # f has no square divisor
        for p in range(2, int(math.isqrt(f)) + 1):
            assert f % (p * p) != 0


def test_squarefree_split_large_cofactors():
    # trial division stops at a fixed bound B; a cofactor with no prime
    # factor below B and smaller than B^3 is p, p*q or p^2
    from blowup.exact import _TRIAL_BOUND as B

    p, q = 131101, 131129  # primes above B
    assert p > B and q > B
    assert squarefree_split(p) == (1, p)
    assert squarefree_split(p * q) == (1, p * q)
    assert squarefree_split(p * p) == (p, 1)
    assert squarefree_split(12 * p * p) == (2 * p, 3)
    assert squarefree_split(10**13 + 37) == (1, 10**13 + 37)
    # a larger cofactor is split when it is a square
    p = 10**15 + 37  # prime, as is 10**15 + 91
    assert squarefree_split(p * p) == (p, 1)
    assert squarefree_split(p * p * 7) == (p, 7)
    assert Quadratic(0, 1, p * p * 7) == Quadratic(0, p, 7)
    # and refused otherwise: it would need factoring beyond the bound
    big = p * (10**15 + 91)
    with pytest.raises(ValueError, match="no prime factor below"):
        squarefree_split(big)
    with pytest.raises(ValueError, match="no prime factor below"):
        Quadratic(0, 1, big * 7)
    # 4,401 digits, past Python's 4,300-digit limit for integer strings: named by bit length
    with pytest.raises(ValueError, match=r"^cannot split <14617-bit integer> into .* its cofactor <\d+-bit integer>"):
        squarefree_split(10**4400 + 1)


def test_rational_canonicalization():
    q = Quadratic(Fraction(3, 4))
    assert q.is_rational
    assert q.as_fraction() == Fraction(3, 4)
    assert q.d == 0
    # b = 0 forces d = 0 regardless of the constructor argument
    assert Quadratic(2, 0, 7).d == 0
    # square parts of d fold into b: 3*sqrt(8) = 6*sqrt(2)
    q = Quadratic(0, 3, 8)
    assert (q.b, q.d) == (Fraction(6), 2)


def test_float_value():
    assert float(Quadratic(Fraction(1, 2))) == 0.5
    v = float(Quadratic(1, 2, 5))
    assert abs(v - (1 + 2 * math.sqrt(5))) < 1e-15


def test_arithmetic_golden():
    phi = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)
    # golden ratio satisfies phi^2 = phi + 1
    assert phi * phi == phi + 1
    assert 1 / phi == phi - 1
    s5 = Quadratic.sqrt(5)
    assert s5 * s5 == Quadratic(5)
    assert (s5 + 1) * (s5 - 1) == Quadratic(4)


def test_arithmetic_random_against_float():
    random.seed(23)
    for _ in range(300):
        d = random.choice([2, 3, 5, 7, 13])
        x = Quadratic(Fraction(random.randint(-9, 9), random.randint(1, 9)),
                      Fraction(random.randint(-9, 9), random.randint(1, 9)), d)
        y = Quadratic(Fraction(random.randint(-9, 9), random.randint(1, 9)),
                      Fraction(random.randint(-9, 9), random.randint(1, 9)), d)
        for op in ("+", "-", "*"):
            z = eval(f"x {op} y")
            zf = eval(f"float(x) {op} float(y)")
            assert abs(float(z) - zf) < 1e-9
        if float(y) != 0 and not (y.a == 0 and y.b == 0):
            z = x / y
            assert abs(float(z) - float(x) / float(y)) < 1e-6
            assert z * y == x


def test_division_exact_inverse():
    x = Quadratic(3, -2, 7)
    inv = 1 / x
    assert x * inv == Quadratic(1)
    with pytest.raises(ZeroDivisionError):
        x / Quadratic(0)


def test_mixed_field_rejected():
    a = Quadratic.sqrt(2)
    b = Quadratic.sqrt(3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    # rationals live in every field
    assert Quadratic(2) + a == Quadratic(2, 1, 2)


def test_int_and_fraction_coercion():
    q = Quadratic(0, 1, 5)
    assert q + 1 == Quadratic(1, 1, 5)
    assert 1 + q == Quadratic(1, 1, 5)
    assert 2 * q == Quadratic(0, 2, 5)
    assert q - Fraction(1, 2) == Quadratic(Fraction(-1, 2), 1, 5)
    assert (q / 2).b == Fraction(1, 2)


def test_exact_ordering():
    # sqrt(2) < 3/2 < sqrt(3), decided without floats
    assert Quadratic.sqrt(2) < Quadratic(Fraction(3, 2))
    assert Quadratic(Fraction(3, 2)) < Quadratic.sqrt(3)
    # 1 + sqrt(5) > 3 since sqrt(5) > 2
    assert Quadratic(1, 1, 5) > Quadratic(3)
    assert Quadratic(1, 1, 5) >= Quadratic(1, 1, 5)
    assert not Quadratic(1, 1, 5) > Quadratic(1, 1, 5)
    # near-tie that a double would get wrong: sqrt(2) vs 665857/470832
    # (a continued-fraction convergent, equal to sqrt(2) to ~2e-12)
    approx = Quadratic(Fraction(665857, 470832))
    assert Quadratic.sqrt(2) < approx
    assert (approx * approx - 2).a > 0


def test_cross_field_comparison_via_float():
    assert Quadratic.sqrt(2) < Quadratic.sqrt(3)
    assert Quadratic.sqrt(5) > 2.2
    assert Quadratic(Fraction(1, 3)) > 0.33


def test_equality_and_hash():
    assert Quadratic(2) == Quadratic(Fraction(4, 2))
    assert Quadratic(2) == 2
    assert hash(Quadratic(2)) == hash(Fraction(2))
    half = Quadratic(Fraction(1, 2))
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert hash(half) == hash(Fraction(1, 2))
    # one value, reached by arithmetic or by construction: equal, one hash, one spectrum entry
    x, y = Quadratic(1, 1, 5) / 12, Quadratic(Fraction(1, 12), Fraction(1, 12), 5)
    assert x == y and hash(x) == hash(y)
    assert Spectrum([(x, 1), (y, 2)]).entries == ((y, 3),)
    s = {Quadratic(1, 1, 5), Quadratic(1, 1, 5), Quadratic(2)}
    assert len(s) == 2
    # no silent equality with floats
    assert (Quadratic(Fraction(1, 2)) == 0.5) is False


def test_only_rationals_construct():
    # Fraction() would parse a string and take a float's binary value exactly
    for bad in (0.1, "1/3", np.float64(0.5)):
        with pytest.raises(TypeError):
            Quadratic(bad)
        with pytest.raises(TypeError):
            Quadratic(1, bad, 5)
    with pytest.raises(TypeError):
        Quadratic(1) + "1/3"
    with pytest.raises(TypeError):
        Quadratic(1) * 0.5


def test_numpy_integers_become_python_ints():
    # an np.int64 has .numerator, but its products overflow at 2^63
    big = np.int64(2**40)
    x = Quadratic(big, np.int64(3), np.int64(5))
    assert x == Quadratic(2**40, 3, 5)
    assert x * big == Quadratic(2**80, 3 * 2**40, 5)
    assert Quadratic(big) * big == 2**80 and big * Quadratic(big) == 2**80
    assert (x / big).a == 1 and (x / big).b == Fraction(3, 2**40)
    assert x - big == Quadratic(0, 3, 5) and type((x * big).a.numerator) is int


def test_str_forms():
    assert str(Quadratic(Fraction(2, 9))) == "2/9"
    assert str(Quadratic(1, 2, 5)) == "1+2*sqrt(5)"
    assert str(Quadratic(1, -2, 5)) == "1-2*sqrt(5)"
    assert str(Quadratic(Fraction(1, 12), Fraction(1, 12), 5)) == "1/12+1/12*sqrt(5)"


def test_compact_forms():
    assert Quadratic(5).compact() == "5"
    assert Quadratic(Fraction(2, 9)).compact() == "2/9"
    assert Quadratic.sqrt(5).compact() == "sqrt5"
    assert (-Quadratic.sqrt(5)).compact() == "-sqrt5"
    assert Quadratic(1, 2, 5).compact() == "1+2*sqrt5"


# -- field laws ------------------------------------------------------------------

#: Q(sqrt 5) with bounded rational parts
_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_field = st.builds(lambda a, b: Quadratic(a, b, 5), _rationals, _rationals)
#: coefficients with numerators and denominators well above 2^64
_huge = st.builds(lambda sign, p, r: Fraction(sign * p, r), st.sampled_from([-1, 1]),
                  st.integers(2**64, 2**90), st.integers(1, 2**70))

_laws = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@_laws
@given(_field, _field, _field)
def test_field_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x
    assert x + (-x) == Quadratic(0) and x - y == -(y - x)
    assert float(x * y) == pytest.approx(float(x) * float(y), rel=1e-9, abs=1e-9)


@_laws
@given(_field, _field)
def test_field_inverses(x, y):
    if x:
        assert x * (1 / x) == Quadratic(1)
        assert (y / x) * x == y
    else:
        with pytest.raises(ZeroDivisionError):
            y / x


@_laws
@given(_field)
def test_field_representation(x):
    # the coefficients rebuild the value; a rational hashes as its Fraction
    y = Quadratic(x.a, x.b, x.d or 5)
    assert x == y and hash(x) == hash(y)
    if x.is_rational:
        assert hash(x) == hash(x.as_fraction()) and x == x.as_fraction()
    z = Quadratic(x.a / 12, x.b / 12, 5)
    assert x / 12 == z and hash(x / 12) == hash(z)
    assert float(x) == float(x.a) + float(x.b) * math.sqrt(x.d)


@_laws
@given(_huge, _huge, st.sampled_from([2, 3, 5, 7, 10, 13, 10**13 + 37]))
def test_float_image_of_huge_coefficients(a, b, d):
    # each coefficient is rounded once, as float(a) + float(b) * sqrt(d)
    x = Quadratic(a, b, d)
    assert float(x) == float(a) + float(b) * math.sqrt(d)
    assert float(x * x) == float((x * x).a) + float((x * x).b) * math.sqrt(d)
