"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A value is a + b*sqrt(d) with Fraction coefficients. Rationals are the
b == 0 case and store d == 0. Nonzero b forces d to a squarefree integer
>= 2; square factors of d are folded into b at construction, so equality
is structural.

Arithmetic stays inside one field: combining two irrational values with
different d raises ValueError. Ordering against another exact value in
the same field is decided exactly; ordering against a float or across
fields falls back to float conversion (documented tolerance: the float
image is correct to about 1 ulp, far below the 1e-9 comparisons used by
callers).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


#: trial division stops below this bound
_TRIAL_BOUND = 1 << 17


@lru_cache(maxsize=1024)  # Quadratic arithmetic in one field splits the same d again
def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n == s*s*f and f squarefree, for n >= 1.

    Trial division runs below _TRIAL_BOUND = B. A cofactor left with no prime
    factor below B and smaller than B^3 has at most two prime factors, so it
    is squarefree unless it is a square. A larger one is refused (ValueError)
    rather than factored.
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
        if m >= _TRIAL_BOUND**3:
            raise ValueError(f"cannot split {n} into a square and a squarefree part: "
                             f"its cofactor {m} has no prime factor below {_TRIAL_BOUND}")
        root = math.isqrt(m)
        if root * root == m:
            return s * root, f
    return s, f * m


_RationalLike = (int, Fraction)


class Quadratic:
    """An exact real number a + b*sqrt(d), rational when b == 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 0):
        a = Fraction(a)
        b = Fraction(b)
        if b:
            if d < 0:
                raise ValueError("negative radicand")
            if d < 2:
                # sqrt(0) and sqrt(1) collapse to rationals
                a += b * d
                b = Fraction(0)
                d = 0
            else:
                s, f = squarefree_split(d)
                if f == 1:
                    a += b * s
                    b = Fraction(0)
                    d = 0
                else:
                    b *= s
                    d = f
        else:
            b = Fraction(0)
            d = 0
        self.a = a
        self.b = b
        self.d = d

    # -- constructors ----------------------------------------------------

    @staticmethod
    def sqrt(d: int) -> "Quadratic":
        return Quadratic(0, 1, d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        if self.b == 0:
            return float(self.a)
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- arithmetic (exact; same field or rational only) ------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Quadratic):
            return x
        if isinstance(x, _RationalLike):
            return Quadratic(x)
        return None

    def _join_field(self, other: "Quadratic") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0 or other.d == self.d:
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
        return Quadratic(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Quadratic(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_field(o)
        # (a + b r)(a' + b' r) with r*r == d
        return Quadratic(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero")
        if o.b == 0:
            return Quadratic(self.a / o.a, self.b / o.a, self.d)
        norm = o.a * o.a - o.b * o.b * o.d  # nonzero: sqrt(d) irrational
        conj = Quadratic(o.a / norm, -o.b / norm, o.d)
        return self * conj

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- comparisons ------------------------------------------------------

    def _sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a*a against b*b*d; equality impossible
        lhs, rhs = a * a, b * b * self.d
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is not None:
            if self.b == 0 or o.b == 0 or self.d == o.d:
                return (self - o)._sign()
            x, y = float(self), float(o)  # different fields: float fallback
            return (x > y) - (x < y)
        if isinstance(other, float):
            x, y = float(self), other
            return (x > y) - (x < y)
        raise TypeError(f"cannot order Quadratic against {type(other).__name__}")

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.d) == (o.a, o.b, o.d)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*sqrt({self.d})"

    def compact(self) -> str:
        """Short display form: '5', '2/9', 'sqrt5', '1+2*sqrt5'."""
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            tail = f"sqrt{self.d}"
        elif self.b == -1:
            tail = f"-sqrt{self.d}"
        else:
            tail = f"{self.b}*sqrt{self.d}"
        if self.a == 0:
            return tail
        joiner = "+" if not tail.startswith("-") else ""
        return f"{self.a}{joiner}{tail}"

    def __repr__(self):
        return f"Quadratic({self.a!r}, {self.b!r}, {self.d!r})"
