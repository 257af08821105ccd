"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A value a + b*sqrt(d) is held as Python integers (p + q*sqrt(d))/r in lowest
terms, gcd(p, q, r) == 1 and r > 0. Rationals are the q == 0 case and store
d == 0. Nonzero q forces d to a squarefree integer >= 2; square factors of d
are folded into q at construction, so equality is structural. Every operator
costs integer products and one gcd; `a` and `b` are the coefficients as
Fractions, and `as_integer` reads an integer value without building one.

Arithmetic stays inside one field: combining two irrational values with
different d raises ValueError. Ordering against another exact value in
the same field is decided exactly; ordering against a float or across
fields falls back to float conversion (documented tolerance: the float
image is correct to about 1 ulp, far below the 1e-9 comparisons used by
callers).
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction


#: trial division stops below this bound
_TRIAL_BOUND = 1 << 17


def decimal_or_bits(n: int) -> str:
    """n in decimal for a message, or past 14,000 bits its bit length: Python's default
    limit refuses integer strings of more than 4,300 digits, about 14,284 bits."""
    return str(n) if n.bit_length() <= 14_000 else f"<{n.bit_length()}-bit integer>"


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n == s*s*f and f squarefree, for n >= 1.

    Trial division runs below _TRIAL_BOUND = B. A cofactor left with no prime
    factor below B and smaller than B^3 has at most two prime factors, so it
    is squarefree unless it is a square. A larger one that is not a square is
    refused (ValueError) rather than factored.
    """
    if n < 1:
        raise ValueError("squarefree_split needs a positive integer")
    s, f, m = 1, 1, n
    p = 2
    while p * p <= m and p < _TRIAL_BOUND:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    if p * p <= m:
        root = math.isqrt(m)
        if root * root == m:
            return s * root, f
        if m >= _TRIAL_BOUND**3:
            raise ValueError(f"cannot split {decimal_or_bits(n)} into a square and a squarefree part: "
                             f"its cofactor {decimal_or_bits(m)} has no prime factor below {_TRIAL_BOUND}")
    return s, f * m


def _rational(x) -> tuple[int, int]:
    """Numerator and denominator of an int, a Fraction or a numpy integer, as
    Python ints: numpy integer arithmetic would overflow at 2^63."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, numbers.Rational):
        return int(x.numerator), int(x.denominator)
    raise TypeError(f"Quadratic takes ints and Fractions, not {type(x).__name__}")


def _store(x: "Quadratic", p: int, q: int, r: int, d: int) -> "Quadratic":
    """Set x to (p + q*sqrt(d))/r, r != 0, in lowest terms; d is already squarefree."""
    if r < 0:
        p, q, r = -p, -q, -r
    g = math.gcd(p, q, r)
    x._p, x._q, x._r, x.d = p // g, q // g, r // g, d if q else 0
    return x


def _new(p: int, q: int, r: int, d: int) -> "Quadratic":
    return _store(object.__new__(Quadratic), p, q, r, d)


class Quadratic:
    """An exact real number a + b*sqrt(d), rational when b == 0."""

    __slots__ = ("_p", "_q", "_r", "d")

    def __init__(self, a, b=0, d: int = 0):
        """a and b are ints or Fractions; a float or a string is refused (TypeError)."""
        (an, ad), (bn, bd) = _rational(a), _rational(b)
        p, q, r = an * bd, bn * ad, ad * bd
        if q:
            d = operator.index(d)
            if d < 0:
                raise ValueError("negative radicand")
            # sqrt(0) and sqrt(1) collapse to rationals
            s, d = (d, 1) if d < 2 else squarefree_split(d)
            q *= s
            if d == 1:
                p, q = p + q, 0
        _store(self, p, q, r, d)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def sqrt(d: int) -> "Quadratic":
        return Quadratic(0, 1, d)

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._r)

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def as_fraction(self) -> Fraction:
        if self._q:
            raise ValueError(f"{self} is irrational")
        return self.a

    def as_integer(self) -> int | None:
        """The value as an int when it is an integer, else None."""
        return None if self._q or self._r != 1 else self._p

    def conjugate(self) -> "Quadratic":
        """a - b*sqrt(d)."""
        return _new(self._p, -self._q, self._r, self.d)

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        # float(a) + float(b)*sqrt(d), each coefficient rounded once
        if not self._q:
            return self._p / self._r
        return self._p / self._r + self._q / self._r * math.sqrt(self.d)

    def __bool__(self) -> bool:
        return bool(self._p or self._q)

    # -- arithmetic (exact; same field or rational only) ------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Quadratic):
            return x
        if isinstance(x, (int, numbers.Rational)):
            p, r = _rational(x)
            return _new(p, 0, r, 0)
        return None

    def _join_field(self, other: "Quadratic") -> int:
        if not self._q:
            return other.d
        if not other._q or other.d == self.d:
            return self.d
        raise ValueError(
            f"cannot combine values from different quadratic fields "
            f"(sqrt({self.d}) vs sqrt({other.d}))"
        )

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_field(o)
        r, s = self._r, o._r
        return _new(self._p * s + o._p * r, self._q * s + o._q * r, r * s, d)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self._p, -self._q, self._r, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_field(o)
        # (p + q t)(p' + q' t) with t*t == d
        p, q = self._p, self._q
        return _new(p * o._p + q * o._q * d, p * o._q + q * o._p, self._r * o._r, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero")
        p, q, r = self._p, self._q, self._r
        if not o._q:
            return _new(p * o._r, q * o._r, r * o._p, self.d)
        d = self._join_field(o)
        # multiply by the conjugate p' - q' t; the norm p'^2 - q'^2 d is nonzero
        op, oq = o._p, o._q
        return _new((p * op - q * oq * d) * o._r, (q * op - p * oq) * o._r, r * (op * op - oq * oq * d), d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    # -- comparisons ------------------------------------------------------

    def _sign(self) -> int:
        """Exact sign of (p + q*sqrt(d))/r, which is the sign of p + q*sqrt(d)."""
        p, q = self._p, self._q
        sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
        if sp == sq or not sq:
            return sp
        if not sp:
            return sq
        # opposite signs: compare p*p against q*q*d; equality impossible
        return sp if p * p > q * q * self.d else sq

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None and not isinstance(other, float):
            raise TypeError(f"cannot order Quadratic against {type(other).__name__}")
        if o is not None and (not self._q or not o._q or self.d == o.d):
            return (self - o)._sign()
        x, y = float(self), float(other)  # a float, or different fields: float fallback
        return (x > y) - (x < y)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._p, self._q, self._r, self.d) == (o._p, o._q, o._r, o.d)

    def __hash__(self):
        if self._q:
            return hash((self._p, self._q, self._r, self.d))
        return hash(self._p) if self._r == 1 else hash(self.a)  # as the equal int or Fraction

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- rendering ---------------------------------------------------------

    def _render(self, root: str, bare_unit: bool) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        tail = f"{'-' if b < 0 else ''}{root}" if bare_unit and abs(b) == 1 else f"{b}*{root}"
        return tail if a == 0 else f"{a}{'' if b < 0 else '+'}{tail}"

    def __str__(self):
        return self._render(f"sqrt({self.d})", False)

    def compact(self) -> str:
        """Short display form: '5', '2/9', 'sqrt5', '1+2*sqrt5'."""
        return self._render(f"sqrt{self.d}", True)

    def __repr__(self):
        return f"Quadratic({self.a!r}, {self.b!r}, {self.d!r})"
