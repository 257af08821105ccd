"""Adjacency spectra: a multiset type over exact and float eigenvalues.

A Spectrum stores (value, multiplicity) pairs sorted in descending order.
Exact values (Quadratic, including rationals) with equal canonical form are
merged at construction; float values are kept unmerged internally and only
grouped for display. `eigenvalues` is the package's one call into the
numeric eigensolver, LAPACK's symmetric solver via numpy; accuracy for the
dense orders used here (n <= ~2000) is far inside the 1e-9 contract, and
nonconvergence or non-finite output surfaces as NumericError.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NumericError
from .exact import Quadratic
from .graphs import Graph

#: absolute agreement required between an exact spectrum and the eigensolver
NUMERIC_SPECTRUM_TOL = 1e-8

#: slack of the float trace and power-sum identities
IDENTITY_TOL = 1e-6

#: grouping gap when pretty-printing float spectra
DISPLAY_MERGE_GAP = 1e-7


def _as_value(v):
    if isinstance(v, Quadratic):
        return v
    if isinstance(v, (int, Fraction)):
        return Quadratic(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    raise TypeError(f"unsupported eigenvalue type {type(v).__name__}")


class Spectrum:
    """Descending multiset of eigenvalues, exact or float."""

    __slots__ = ("entries",)

    def __init__(self, pairs):
        exact: dict[Quadratic, int] = {}
        inexact: list[tuple[float, int]] = []
        for v, m in pairs:
            m = int(m)
            if m < 1:
                raise ValueError("multiplicities must be positive")
            v = _as_value(v)
            if isinstance(v, Quadratic):
                exact[v] = exact.get(v, 0) + m
            else:
                inexact.append((v, m))
        entries: list[tuple[object, int]] = list(exact.items()) + inexact
        entries.sort(key=lambda e: -float(e[0]))
        self.entries = tuple(entries)

    @classmethod
    def from_floats(cls, values) -> "Spectrum":
        return cls((float(v), 1) for v in values)

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Quadratic) for v, _ in self.entries)

    def kth(self, k: int):
        """k-th largest eigenvalue counted with multiplicity, 1-based."""
        if k < 1:
            raise ValueError("k must be >= 1")
        left = k
        for v, m in self.entries:
            if left <= m:
                return v
            left -= m
        raise ValueError(f"k={k} exceeds the number of eigenvalues {self.n}")

    def float_values(self) -> np.ndarray:
        """All eigenvalues expanded to floats, descending."""
        out = np.empty(self.n)
        pos = 0
        for v, m in self.entries:
            out[pos : pos + m] = float(v)
            pos += m
        return out

    def power_sum(self, p: int) -> float:
        return float(math.fsum((float(v) ** p) * m for v, m in self.entries))

    def trace_is_zero(self) -> bool:
        """Exact zero test when all entries are exact, else a float test within IDENTITY_TOL."""
        rat = Fraction(0)
        irr: dict[int, Fraction] = {}
        fl = []
        for v, m in self.entries:
            if isinstance(v, Quadratic):
                rat += v.a * m
                if v.b:
                    irr[v.d] = irr.get(v.d, Fraction(0)) + v.b * m
            else:
                fl.append(v * m)
        if not fl:
            return rat == 0 and all(s == 0 for s in irr.values())
        total = float(rat) + math.fsum(fl)
        total += math.fsum(float(s) * math.sqrt(d) for d, s in irr.items())
        return abs(total) <= IDENTITY_TOL

    # -- comparisons ----------------------------------------------------------

    def allclose(self, other: "Spectrum") -> bool:
        """Same order, and every eigenvalue within NUMERIC_SPECTRUM_TOL of its counterpart."""
        if self.n != other.n:
            return False
        a, b = self.float_values(), other.float_values()
        return bool(np.max(np.abs(a - b)) <= NUMERIC_SPECTRUM_TOL)

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    # -- rendering --------------------------------------------------------------

    def display(self) -> str:
        """Compact text form like '5^1 (sqrt5)^3 (-1)^5 (-sqrt5)^3'."""
        if self.is_exact:
            toks = []
            for v, m in self.entries:
                s = v.compact()
                if s.startswith("-") or "+" in s or "*" in s or s.startswith("sqrt"):
                    s = f"({s})"
                toks.append(f"{s}^{m}")
            return " ".join(toks)
        toks = []
        for v, m in self._display_groups():
            toks.append(f"{v:.6f}^{m}")
        return " ".join(toks)

    def _display_groups(self):
        """Group near-equal float values for printing only."""
        groups: list[list[float | int]] = []
        for v, m in self.entries:
            x = float(v)
            if groups and abs(groups[-1][0] - x) <= DISPLAY_MERGE_GAP:
                groups[-1][1] += m
            else:
                groups.append([x, m])
        return [(g[0], g[1]) for g in groups]

    def to_json_obj(self) -> list:
        out = []
        for v, m in self.entries:
            if isinstance(v, Quadratic):
                out.append({"value": str(v), "mult": m})
            else:
                out.append({"value": v, "mult": m})
        return out

    def __repr__(self):
        return f"Spectrum({self.display()})"


def blowup_transform(s: Spectrum, t: int) -> Spectrum:
    """Spectrum of the closed t-blowup given the base spectrum.

    Each eigenvalue v becomes t*v + (t - 1), and (t - 1)*n copies of -1
    are appended. Exact input gives exact output; t == 1 is the identity.
    """
    if t < 1:
        raise ValueError("blowup factor t must be >= 1")
    exact = s.is_exact
    pairs: list[tuple[object, int]] = []
    for v, m in s.entries:
        if isinstance(v, Quadratic):
            pairs.append((v * t + (t - 1), m))
        else:
            pairs.append((t * float(v) + (t - 1.0), m))
    extra = (t - 1) * s.n
    if extra:
        pairs.append((Quadratic(-1) if exact else -1.0, extra))
    return Spectrum(pairs)


def eigenvalues(a: np.ndarray, index: int | None = None):
    """Ascending eigenvalues of a symmetric matrix, or of each matrix in a stack.

    The package's one eigensolver call. With index, only w[..., index] is
    returned and checked, so a caller reading one eigenvalue of a small
    matrix skips a whole-vector finiteness test that costs about 15% of a
    12x12 solve. Nonconvergence and non-finite output raise NumericError.
    """
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"eigensolver failed to converge: {e}") from e
    if index is not None:
        w = w[..., index]
    if not (math.isfinite(w) if w.ndim == 0 else np.isfinite(w).all()):
        raise NumericError("eigensolver returned non-finite values")
    return w


def eigen_spectrum(g: Graph) -> Spectrum:
    """Numeric spectrum of the adjacency matrix, descending, one entry per value."""
    return Spectrum.from_floats(eigenvalues(g.matrix())[::-1])


def spectrum_invariant_checks(g: Graph, s: Spectrum) -> bool:
    """Check sum(lambda) == 0, sum(lambda^2) == 2E, sum(lambda^3) == 6T within IDENTITY_TOL."""
    return (
        abs(s.power_sum(1)) <= IDENTITY_TOL
        and abs(s.power_sum(2) - 2 * g.edge_count) <= IDENTITY_TOL
        and abs(s.power_sum(3) - 6 * g.triangle_count()) <= IDENTITY_TOL
    )
