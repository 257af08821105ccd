"""Adjacency spectra: a multiset type over exact and float eigenvalues.

A Spectrum stores (value, multiplicity) pairs sorted in descending order.
Exact values (Quadratic, including rationals) with equal canonical form are
merged at construction; float values are kept unmerged internally and only
grouped for display. `eigenvalues` is the package's one call into the
numeric eigensolver, LAPACK's symmetric solver via numpy, and `eigenpairs`
its one call for eigenvectors too; accuracy for the dense orders used here
(n <= ~2000) is far inside the 1e-9 contract, and nonconvergence or
non-finite output surfaces as NumericError.
`check_stated_spectrum` decides exactly, with no eigensolve, whether a graph
has a stated exact spectrum, one row at a time, one per orbit of the
automorphisms it is given (n orbits when none are), as exact int64 sums over
its neighbour lists, which also show that it is symmetric.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InternalConsistencyError, NumericError
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
                if v.as_integer() is None or v < 0:  # so 2-sqrt3 shows as (2-sqrt3)
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

    The package's one call for eigenvalues alone. Only the lower triangle
    of a is read (LAPACK's uplo = 'L'), so a matrix filled on and below its
    diagonal alone gives the eigenvalues of its symmetric completion. With index,
    only w[..., index] is returned and checked, so a caller reading one
    eigenvalue of a small matrix skips a whole-vector finiteness test that
    costs about 15% of a 12x12 solve. Nonconvergence and non-finite output
    raise NumericError.
    """
    try:
        w = np.linalg.eigvalsh(a, UPLO="L")
    except np.linalg.LinAlgError as e:
        raise NumericError(f"eigensolver failed to converge: {e}") from e
    if index is not None:
        w = w[..., index]
    if not (math.isfinite(w) if w.ndim == 0 else np.isfinite(w).all()):
        raise NumericError("eigensolver returned non-finite values")
    return w


def eigenpairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unit eigenvectors, as columns, of a symmetric
    matrix or of each matrix in a stack, read and checked as eigenvalues reads them."""
    try:
        w, v = np.linalg.eigh(a, UPLO="L")
    except np.linalg.LinAlgError as e:
        raise NumericError(f"eigensolver failed to converge: {e}") from e
    if not np.isfinite(w).all():
        raise NumericError("eigensolver returned non-finite values")
    return w, v


def eigen_spectrum(g: Graph) -> Spectrum:
    """Numeric spectrum of the adjacency matrix, descending, one entry per value."""
    return Spectrum.from_floats(eigenvalues(g.matrix())[::-1])


def _horner(x, coeffs):
    """x^t + c_1 x^(t-1) + .. + c_t for coeffs (c_1, .., c_t), by Horner's rule."""
    out = 1
    for c in coeffs:
        out = out * x + c
    return out


def _hoffman_polynomial(stated: Spectrum) -> tuple[int, list[int], list[int]]:
    """The top value k of a stated spectrum; the coefficients (q_1, .., q_D) of
    Q(x) = x^D + q_1 x^(D-1) + .. + q_D, the product of the integer monic minimal
    polynomials of the other values, a conjugate pair sharing one factor; and the
    power sums p_j = sum_i m_i theta_i^j, j < D, in integers by Newton's recurrence
    s_j = -c_1 s_(j-1) - c_2 s_(j-2) on the roots of each factor x^2 + c_1 x + c_2.

    Refuses (ValueError) a top value that is not a simple integer, a value that
    is not an algebraic integer, and a surd whose conjugate is not stated with
    the same multiplicity.
    """
    (top, top_mult), *rest = stated.entries
    k = top.as_integer()
    if top_mult != 1 or k is None:
        raise ValueError(f"stated top value {top} (multiplicity {top_mult}) is not a simple integer")
    mults, poly = dict(rest), [1]
    power_sums = [k**j for j in range(len(rest))]  # Q's degree D counts the other values
    for v, m in rest:
        if v.is_rational:
            coeffs = [-v]
        else:
            conj = v.conjugate()
            if mults.get(conj) != m:
                raise ValueError(f"stated value {v} (multiplicity {m}) lacks its conjugate {conj} "
                                 f"with the same multiplicity")
            if v < conj:
                continue  # its factor came with its conjugate
            coeffs = [-(v + conj), v * conj]
        factor = [1, *(c.as_integer() for c in coeffs)]
        if None in factor:
            raise ValueError(f"stated value {v} is not an algebraic integer")
        prod = [0] * (len(poly) + len(factor) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(factor):
                prod[i + j] += x * y
        poly = prod
        c1, c2 = (*factor[1:], 0)[:2]  # the factor is x^2 + c1 x + c2, or x + c1
        sums = [len(factor) - 1, -c1]  # its roots' s_0 and s_1
        while len(sums) < len(power_sums):
            sums.append(-c1 * sums[-1] - c2 * sums[-2])
        power_sums = [p + m * s for p, s in zip(power_sums, sums)]
    return k, poly[1:], power_sums


def _exactness_bound(k: int, q: list[int]) -> int:
    """(k + 1) * sum_i |q_i| k^(D-i), with q_0 = 1.

    Each Horner partial H_t(A) of a k-regular A has absolute row sums at most
    sum_{i<=t} |q_i| k^(t-i), so this is above every entry of the rows and every
    partial sum that forms one; below 2^63 each is exact in int64.
    """
    return (k + 1) * _horner(k, map(abs, q))


def _orbits(n: int, generators) -> tuple[list[int], list[int]]:
    """The least vertex and the size of each orbit on range(n) of the group the
    permutations span, by a search over their images; with none, n singletons."""
    images, seen, reps, sizes = [g.tolist() for g in generators], [False] * n, [], []
    for v in range(n):
        if not seen[v]:
            seen[v], orbit = True, [v]
            for x in orbit:  # the orbit grows as it is read
                for g in images:
                    if not seen[g[x]]:
                        seen[g[x]] = True
                        orbit.append(g[x])
            reps.append(v)
            sizes.append(len(orbit))
    return reps, sizes


def _hoffman_row(nbrs: np.ndarray, q: list[int], v: int):
    """H_t(A)[v, v] for 1 <= t < D, and row v of Q(A) = H_D(A), in exact int64 sums:
    r_t = r_{t-1} A + q_t e_v from r_0 = e_v (H_t = x H_{t-1} + q_t); e_v A is nbrs[v]'s
    indicator, and entry j of r A sums r's entries at j's neighbours nbrs[j] (A = A^T)."""
    row, diag = np.zeros(len(nbrs), dtype=np.int64), []
    row[nbrs[v] if q else v] = 1
    for t, c in enumerate(q):
        row = row[nbrs].sum(1) if t else row
        row[v] += c
        diag.append(int(row[v]))
    return diag[:-1], row


def check_stated_spectrum(graph: Graph, stated: Spectrum, generators: tuple) -> None:
    """Refuse (ValueError) a stated spectrum the graph does not have, decided exactly.

    Hoffman (1963): A is k-regular and connected exactly when
    Q(A) = (Q(k)/n) J for a polynomial Q with Q(k) != 0; every other
    eigenvalue is then a root of Q. With Q from _hoffman_polynomial, A has no
    eigenvalue outside the stated values. The Horner partials H_t, of degrees
    t < D, span the polynomials below Q's degree, so the exact traces
    tr H_t(A) = sum m_i H_t(theta_i) fix the multiplicities of Q's D distinct
    roots; t = 0 is the order. Builders freeze A unchecked, so A[u, v] is tested
    for each u in v's neighbour list (InternalConsistencyError unless symmetric).
    Each H_t(A) commutes with the automorphisms in generators (index arrays,
    verified here; InternalConsistencyError if one is not), so one row per orbit
    decides Q(A) and the traces, each orbit's diagonal entries weighed by its
    size. The orbits' rows are taken in turn, D sums of one row over A's
    neighbour lists each: O(D n k) for a transitive group; n rows without one.
    """
    k, q, power_sums = _hoffman_polynomial(stated)
    n, adj = graph.n, graph.adj
    if stated.n != n:
        raise ValueError(f"stated spectrum has {stated.n} values for {n} vertices")
    nbrs = np.flatnonzero(adj)
    # n k entries, each row's first and last of them in that row: every degree is k
    if len(nbrs) == n * k:
        nbrs = nbrs.reshape(n, k)
        nbrs -= np.arange(0, n * n, n)[:, None]
    if nbrs.ndim == 1 or ((nbrs[:, :1] < 0) | (nbrs[:, -1:] >= n)).any():
        raise ValueError(f"stated top value {k} is not the degree of every vertex")
    if not adj.reshape(-1)[nbrs * n + np.arange(n)[:, None]].all():
        raise InternalConsistencyError("the adjacency matrix of a stated spectrum is not symmetric")
    if _exactness_bound(k, q) >= 2**63:
        raise ValueError(f"Q(A) for a stated spectrum of degree {len(q)} at degree {k} "
                         "is beyond exact int64 sums")
    qk = _horner(k, q)
    if qk == 0 or qk % n:
        raise ValueError(f"Q(k) = {qk} is not a nonzero multiple of the order {n}")
    # taking each edge at a vertex it moves to an edge, a permutation is an automorphism
    for g in generators:
        moved = np.flatnonzero(g != np.arange(n)) if len(g) == n else None
        if moved is None or not ((np.sort(g[moved]) == moved).all()
                                 and adj.reshape(-1)[g[nbrs[moved]] + n * g[moved, None]].all()):
            raise InternalConsistencyError("a stated automorphism of the graph is not one")
    traces = [0] * (len(q) - 1)
    for v, size in zip(*_orbits(n, generators)):
        diag, row = _hoffman_row(nbrs, q, v)
        if (row != qk // n).any():
            raise ValueError("Q(A) is not (Q(k)/n) J: the graph is not connected, or has an "
                             "eigenvalue the stated spectrum lacks")
        traces = [t + size * x for t, x in zip(traces, diag)]
    for t, trace in enumerate(traces, 1):
        # sum_i m_i H_t(theta_i) = sum_s q_s p_(t-s), with q_0 = 1
        if trace != sum(c * p for c, p in zip([1, *q], power_sums[t::-1])):
            raise ValueError(f"stated multiplicities disagree with tr H_{t}(A) = {trace}")


def spectrum_invariant_checks(g: Graph, s: Spectrum) -> bool:
    """Check sum(lambda) == 0, sum(lambda^2) == 2E, sum(lambda^3) == 6T within IDENTITY_TOL."""
    return (
        abs(s.power_sum(1)) <= IDENTITY_TOL
        and abs(s.power_sum(2) - 2 * g.edge_count) <= IDENTITY_TOL
        and abs(s.power_sum(3) - 6 * g.triangle_count()) <= IDENTITY_TOL
    )
