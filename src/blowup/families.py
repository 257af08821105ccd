"""Named graph families, parameter-level spectra, and the expression parser.

A SpectralDescriptor carries a name and a provenance tree; its spectrum and
order are derived from the tree once, at construction, and from nothing
else. Every node of the tree answers the same three questions: its
certificate `strength`, its `spectrum()` and its `to_json_obj()`. The
leaves are an explicit graph (`Explicit`: a stated exact spectrum is checked
exactly by Hoffman's identity, one row per automorphism orbit, in int64 sums
over the neighbour lists; an unstated one is solved once), strongly regular
parameters (`SrgParams`) or an intersection array (`IntersectionArray`), the
last two by exact formula, with float roots only where a minimal polynomial
has degree 3 or more; a `Derived` node is the union or closed blowup of
described parts, taken at spectrum level.

An expression is the one way to name and build a descriptor. The family
builders are private and return a provenance, not a descriptor; the
`_PRESETS` and `_INTEGER_HEADS` tables map a head to one. `_parse_expr`
handles the heads with their own syntax, renders every canonical name, and
is the one place a SpectralDescriptor is constructed. `GRAMMAR` renders the
grammar for help text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .errors import (
    GraphParseError,
    InfeasibleIntersectionArray,
    InfeasibleSrgParameters,
)
from .exact import Quadratic, decimal_or_bits
from .graphs import (
    Graph,
    cartesian_product,
    check_dense_order,
    closed_blowup_graph,
    complement,
    complete,
    cycle,
    disjoint_union,
    g6_decode,
    g6_encode,
)
from .spectra import (
    Spectrum,
    blowup_transform,
    check_stated_spectrum,
    eigen_spectrum,
    eigenvalues,
)

_MAX_NESTING = 64  # deepest operator nesting an expression may have


# -- the provenance tree: three kinds of leaf and one Derived node ----------------

VERIFIED = "verified"
EXACT_FORMULA = "exact-formula"
_STRENGTHS = (EXACT_FORMULA, VERIFIED)  # weakest first


@dataclass(frozen=True)
class Explicit:
    """Leaf: an adjacency matrix. A stated exact spectrum is checked exactly
    (check_stated_spectrum, given automorphisms as index arrays) and returned
    as stated; an unstated one is solved once."""

    graph: Graph
    exact: tuple | None = None
    generators: tuple = field(default=(), compare=False, repr=False)
    strength = VERIFIED

    def spectrum(self) -> Spectrum:
        if self.exact is None:
            return eigen_spectrum(self.graph)
        stated = Spectrum(self.exact)
        check_stated_spectrum(self.graph, stated, self.generators)
        return stated

    def to_json_obj(self) -> dict:
        return {"kind": "explicit", "graph6": g6_encode(self.graph)}


@dataclass(frozen=True)
class Derived:
    """Node: the disjoint union of two parts, or the closed t-blowup of one.

    Its spectrum is the multiset merge of the parts' spectra, or
    blowup_transform of the part's; no graph is built and nothing is solved.
    """

    op: str  # "union" or "blowup"
    parts: tuple["SpectralDescriptor", ...]
    t: int = 1

    @property
    def strength(self) -> str:
        """The weakest strength among the parts: a certificate is as strong as its weakest leaf."""
        return min((d.provenance.strength for d in self.parts), key=_STRENGTHS.index)

    @property
    def graph(self) -> Graph:
        """The graph the tree describes; every leaf under it must be Explicit."""
        graphs = [d.provenance.graph for d in self.parts]
        return disjoint_union(*graphs) if self.op == "union" else closed_blowup_graph(graphs[0], self.t)

    def spectrum(self) -> Spectrum:
        if self.op == "union":
            return Spectrum(e for d in self.parts for e in d.spectrum.entries)
        return blowup_transform(self.parts[0].spectrum, self.t)

    def to_json_obj(self) -> dict:
        obj = {"kind": "derived", "op": self.op}
        if self.op == "blowup":
            obj["t"] = self.t
        obj["parts"] = [
            {"name": d.name, "n": d.n, "provenance": d.provenance.to_json_obj()} for d in self.parts
        ]
        return obj


@dataclass(frozen=True)
class SpectralDescriptor:
    """A named provenance with the spectrum and order it gives, derived once, on build.

    The spectrum comes only from the provenance, so a descriptor cannot
    state one its provenance does not give. No trace is summed here: every
    leaf's is zero by its derivation (Hoffman's traces, the srg and Biggs
    multiplicity formulas, a zero-diagonal eigensolve). Descriptors and graphs
    are immutable, so nothing downstream checks again.
    """

    name: str
    provenance: Explicit | SrgParams | IntersectionArray | Derived
    spectrum: Spectrum = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        spectrum = self.provenance.spectrum()
        if spectrum.n < 1:
            raise ValueError("descriptor order must be >= 1")
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "n", spectrum.n)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "spectrum": self.spectrum.to_json_obj(),
            "provenance": self.provenance.to_json_obj(),
        }


# -- simple families: each builder returns the provenance of its graph -------------


def _complete(n: int) -> Explicit:
    check_dense_order(n, f"complete:{n}")
    pairs = [(Quadratic(n - 1), 1)]
    if n > 1:
        pairs.append((Quadratic(-1), n - 1))
    return Explicit(complete(n), tuple(pairs), (np.arange(1, n + 1) % n,))


_SMALL_CYCLE_SPECTRA = {
    3: ((2, 1), (-1, 2)),
    4: ((2, 1), (0, 2), (-2, 1)),
    5: (
        (2, 1),
        (Quadratic(-1, 1, 5) / 2, 2),
        (Quadratic(-1, -1, 5) / 2, 2),
    ),
    6: ((2, 1), (1, 2), (-1, 2), (-2, 1)),
}


def _cycle(n: int) -> Explicit:
    """Cycle spectrum; exact through n = 6, numeric beyond (roots stop being quadratic)."""
    check_dense_order(n, f"cycle:{n}")
    return Explicit(cycle(n), _SMALL_CYCLE_SPECTRA.get(n), (np.arange(1, n + 1) % n,))


def _subsets(m: int, r: int) -> np.ndarray:
    """The r-subsets of range(m), J(m, r)'s vertices, in lexicographic order, one sorted column each."""
    if r < 1 or m < 2 * r:
        raise ValueError("johnson graph needs 1 <= r and m >= 2r")
    # C(m, r) >= m, so a huge m is refused before its binomial is formed
    check_dense_order(m, f"johnson({m},{r})")
    n = math.comb(m, r)
    check_dense_order(n, f"johnson({m},{r})")
    return np.fromiter(chain.from_iterable(combinations(range(m), r)), np.intp, n * r).reshape(n, r).T


def _subset_rank(m: int, rows: np.ndarray) -> np.ndarray:
    """The lexicographic index of each r-subset of range(m) given as a sorted
    column of rows: C(m, r) - 1 less sum_j C(m-1-c_j, r-j), the count after it."""
    r = len(rows)
    after = np.array([[math.comb(m - 1 - x, r - j) for x in range(m)] for j in range(r)], dtype=np.intp)
    return math.comb(m, r) - 1 - after.reshape(r, m)[np.arange(r)[:, None], rows].sum(axis=0)


def _johnson_graph(m: int, subsets: np.ndarray) -> Graph:
    """J(m, r) on the columns of subsets: one clique per (r-1)-subset, on the m - r + 1 with it."""
    r, n = subsets.shape
    # each vertex once per (r-1)-subset it has without its i-th element; sorted, cliques group
    j = np.arange(r - 1)
    cores = subsets[j + (j >= np.arange(r)[:, None])].transpose(1, 0, 2).reshape(r - 1, r * n)
    clique = np.argsort(_subset_rank(m, cores), kind="stable").reshape(-1, m - r + 1) % n
    adj = np.zeros((n, n), dtype=bool)
    adj.reshape(-1)[(clique[:, :, None] * n + clique[:, None, :]).ravel()] = True
    np.fill_diagonal(adj, False)
    return Graph._built(adj)


def johnson(m: int, r: int = 2) -> Graph:
    """Johnson graph on r-subsets of an m-set, in lexicographic order, adjacent when they share r-1."""
    return _johnson_graph(m, _subsets(m, r))


def _johnson_spectrum(m: int, r: int) -> tuple:
    """Exact spectrum of the Johnson graph J(m, r), m >= 2r.

    Eigenvalues are (r-j)(m-r-j) - j with multiplicity C(m,j) - C(m,j-1)
    for j = 0..r; for r = 2 this is 2(m-2), m-4, and -2.
    """
    pairs = []
    for j in range(r + 1):
        mult = math.comb(m, j) - (math.comb(m, j - 1) if j >= 1 else 0)
        if mult > 0:
            pairs.append((Quadratic((r - j) * (m - r - j) - j), mult))
    return tuple(pairs)


def _johnson_generators(m: int, subsets: np.ndarray) -> tuple:
    """(0 1) and (0 1 .. m-1), generators of the symmetric group, on the lexicographic columns
    of subsets by index arithmetic: (0 1) swaps the b with 0 but not 1 and the b after them;
    (0 1 .. m-1) sends the i-th with m-1 to the i-th with 0, the i-th without to the i-th without 0."""
    r, n = subsets.shape
    b = math.comb(m - 2, r - 1)
    a = math.comb(m - 1, r - 1) - b  # the subsets with 0 and 1 come first
    swap = np.arange(n)
    swap[a : a + b] += b
    swap[a + b : a + 2 * b] -= b
    last = subsets[-1] == m - 1
    with_last = np.cumsum(last)  # of the subsets up to each one, those with m-1
    return swap, np.where(last, with_last - 1, a + b + np.arange(n) - with_last)


def _johnson(m: int, r: int) -> Explicit:
    """Johnson graph with its exact spectrum and automorphisms, from one list of its vertices."""
    subsets = _subsets(m, r)
    return Explicit(_johnson_graph(m, subsets), _johnson_spectrum(m, r), _johnson_generators(m, subsets))


# Pentagonal antiprism plus two apex vertices: 0 above the ring 1..5,
# 11 below the ring 6..10.
_ICOSAHEDRON_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
    (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
    (11, 6), (11, 7), (11, 8), (11, 9), (11, 10),
    (1, 6), (1, 7), (2, 7), (2, 8), (3, 8),
    (3, 9), (4, 9), (4, 10), (5, 10), (5, 6),
)


def icosahedron() -> Graph:
    """The icosahedral graph: 12 vertices, 5-regular, 30 edges."""
    return Graph.from_edges(12, _ICOSAHEDRON_EDGES)


def _icosahedron() -> Explicit:
    r5 = Quadratic.sqrt(5)
    # turns about the axes through 0 and 11 and through 1 and 9, a transitive pair
    turns = np.array([(0, 2, 3, 4, 5, 1, 7, 8, 9, 10, 6, 11), (2, 1, 7, 8, 3, 0, 5, 6, 11, 9, 4, 10)])
    return Explicit(icosahedron(), ((Quadratic(5), 1), (r5, 3), (Quadratic(-1), 5), (-r5, 3)), (*turns,))


def petersen() -> Graph:
    """Petersen graph, built as the complement of johnson(5, 2)."""
    return complement(johnson(5, 2))


def _petersen() -> Explicit:
    spectrum = ((Quadratic(3), 1), (Quadratic(1), 5), (Quadratic(-2), 4))
    j = _johnson(5, 2)
    return Explicit(complement(j.graph), spectrum, j.generators)  # J(5,2)'s complement


def paley(q: int) -> Graph:
    """Paley graph on q vertices for prime q = 1 mod 4; q = 9 is K3 x K3."""
    if q == 9:
        k3 = complete(3)
        return cartesian_product(k3, k3)
    check_dense_order(q, f"paley({q})")
    if q < 5 or q % 4 != 1 or not all(q % p for p in range(2, math.isqrt(q) + 1)):
        raise ValueError(f"paley({q}): q must be 9 or a prime congruent to 1 mod 4")
    residue = np.zeros(q, dtype=bool)
    residue[np.arange(1, q) ** 2 % q] = True
    i = np.arange(q)
    return Graph._built(residue[i[:, None] - i])  # a negative i - j indexes from the end: mod q


def _paley(q: int) -> Explicit:
    """Paley graph, its conference spectrum and its field's translations (K3 x K3's at q = 9)."""
    g, half, i = paley(q), (q - 1) // 2, np.arange(q)
    shifts = ((i + 3) % 9, i + 1 - i % 3 // 2 * 3) if q == 9 else ((i + 1) % q,)
    return Explicit(g, ((Quadratic(half), 1), *((Quadratic(-1, b, q) / 2, half) for b in (1, -1))), shifts)


# -- strongly regular parameters ----------------------------------------------


@dataclass(frozen=True)
class SrgParams:
    """Leaf: parameters (v, k, lambda, mu) of a strongly regular graph, spectrum by exact formula."""

    v: int
    k: int
    lam: int
    mu: int
    strength = EXACT_FORMULA

    def __post_init__(self):
        if not (0 < self.k < self.v):
            raise InfeasibleSrgParameters(f"need 0 < k < v, got k={self.k}, v={self.v}")
        if self.lam < 0 or self.mu < 0:
            raise InfeasibleSrgParameters("lambda and mu must be nonnegative")
        lhs = self.k * (self.k - self.lam - 1)
        rhs = (self.v - self.k - 1) * self.mu
        if lhs != rhs:
            raise InfeasibleSrgParameters(
                f"counting identity fails: k(k-lambda-1)={lhs} != (v-k-1)mu={rhs}"
            )

    def spectrum(self) -> Spectrum:
        """Exact spectrum from the parameters.

        The non-principal eigenvalues are r, s = ((lam-mu) +- sqrt(D))/2 with
        D = (lam-mu)^2 + 4(k-mu). Square D gives integer eigenvalues with
        multiplicities f, g from the standard counting formula; non-square D
        is the conference case and requires 2k + (v-1)(lam-mu) = 0, checked
        before D is factored. Primitive parameters must also pass the two
        Krein conditions and the absolute bound (Delsarte, Goethals and
        Seidel 1975), compared exactly.
        """
        v, k, lam, mu = self.v, self.k, self.lam, self.mu
        disc = (lam - mu) ** 2 + 4 * (k - mu)
        if disc <= 0:
            raise InfeasibleSrgParameters(f"degenerate discriminant {disc}")
        root = math.isqrt(disc)
        diff_term = 2 * k + (v - 1) * (lam - mu)
        if root * root == disc:
            r = Quadratic(lam - mu + root) / 2
            s = Quadratic(lam - mu - root) / 2
            # f, g = (v-1)/2 -+ (2k + (v-1)(lam-mu)) / (2 sqrt(D)), here times 2 sqrt(D)
            f, g = (v - 1) * root - diff_term, (v - 1) * root + diff_term
            for val, mult in ((r, f), (s, g)):
                if mult < 0 or mult % (2 * root):
                    raise InfeasibleSrgParameters(f"multiplicity {Quadratic(mult) / (2 * root)} "
                                                  f"for eigenvalue {val} is not a nonnegative integer")
            f, g = f // (2 * root), g // (2 * root)
        else:
            if diff_term != 0:
                raise InfeasibleSrgParameters(
                    "irrational eigenvalues need the conference condition 2k+(v-1)(lambda-mu)=0"
                )
            if (v - 1) % 2:
                raise InfeasibleSrgParameters("conference parameters need odd v")
            r = Quadratic(lam - mu, 1, disc) / 2
            s = Quadratic(lam - mu, -1, disc) / 2
            f = g = (v - 1) // 2
        # Absolute bound and Krein conditions (see Brouwer and Van Maldeghem,
        # Strongly Regular Graphs, CUP 2022). They hold for primitive graphs only:
        # a union of cliques or a complete multipartite graph fails the bound.
        if 0 < mu < k < v - 1:
            for name, m in (("f", f), ("g", g)):
                if 2 * v > m * (m + 3):
                    raise InfeasibleSrgParameters(
                        f"absolute bound fails: v={v} > {name}({name}+3)/2 = {m * (m + 3) // 2}"
                    )
            for x, y in ((r, s), (s, r)):
                if (x + 1) * (k + x + 2 * r * s) > (k + x) * (y + 1) * (y + 1):
                    raise InfeasibleSrgParameters(
                        f"Krein condition fails: (x+1)(k+x+2rs) > (k+x)(y+1)^2 for x={x}, y={y}"
                    )
        pairs = [(Quadratic(k), 1)] + [(val, mult) for val, mult in ((r, f), (s, g)) if mult]
        return Spectrum(pairs)

    def to_json_obj(self) -> dict:
        return {"kind": "srg", "v": self.v, "k": self.k, "lambda": self.lam, "mu": self.mu}


# -- intersection arrays -------------------------------------------------------


@dataclass(frozen=True)
class IntersectionArray:
    """Leaf: the intersection array {b0,..,b_{d-1}; c1,..,cd} of a distance regular
    graph, spectrum by exact formula."""

    b: tuple[int, ...]
    c: tuple[int, ...]
    strength = EXACT_FORMULA

    _a: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _k: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check the array and store a_i = b0 - b_i - c_i (b_d = 0, c_0 = 0, a_0 = 0)
        and k_0 = 1, k_j = k_{j-1} b_{j-1} / c_j, refused unless each is an integer."""
        b, c = tuple(self.b), tuple(self.c)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        d = len(b)
        if d < 1 or len(c) != d:
            raise InfeasibleIntersectionArray("b and c sequences must have equal positive length")
        if any(x < 1 for x in b) or any(x < 1 for x in c):
            raise InfeasibleIntersectionArray("intersection numbers must be positive")
        if c[0] != 1:
            raise InfeasibleIntersectionArray("c1 must equal 1")
        if any(b[i + 1] > b[i] for i in range(d - 1)):
            raise InfeasibleIntersectionArray("b sequence must be nonincreasing")
        if any(c[i + 1] < c[i] for i in range(d - 1)):
            raise InfeasibleIntersectionArray("c sequence must be nondecreasing")
        a = (0, *(b[0] - bi - ci for bi, ci in zip((*b[1:], 0), c)))
        for i in range(1, d + 1):
            if a[i] < 0:
                raise InfeasibleIntersectionArray(f"a_{i} = {a[i]} is negative")
        k = [1]
        for j in range(1, d + 1):
            num = k[-1] * b[j - 1]
            kj, rem = divmod(num, c[j - 1])
            if rem:
                g = math.gcd(num, c[j - 1])
                raise InfeasibleIntersectionArray(
                    f"valency k_{j} = {decimal_or_bits(num // g)}/{c[j - 1] // g} is not a positive integer")
            k.append(kj)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_k", tuple(k))

    @property
    def diameter(self) -> int:
        return len(self.b)

    def valencies(self) -> tuple[int, ...]:
        """k_0 = 1 and k_j = k_{j-1} b_{j-1} / c_j."""
        return self._k

    @property
    def n(self) -> int:
        return sum(self._k)

    def _charpoly_mod(self, s: int, p: int) -> tuple[int, int]:
        """The intersection matrix's characteristic polynomial P modulo t^2 - s t + p,
        as (u, v) for u + v t, exactly in O(d) integer steps: its leading minors
        follow p_{i+1} = (t - a_i) p_i - b_{i-1} c_{i-1} p_{i-1}, and t (u + v t) is
        -p v + (u + s v) t."""
        (u0, v0), (u, v) = (1, 0), (0, 1)  # p_0 = 1 and p_1 = t - a_0, a_0 = 0
        for i in range(1, self.diameter + 1):
            ai, bc = self._a[i], self.b[i - 1] * self.c[i - 1]
            (u0, v0), (u, v) = (u, v), (-p * v - ai * u - bc * u0, u + (s - ai) * v - bc * v0)
        return u, v

    def spectrum(self) -> Spectrum:
        """Exact spectrum from the array.

        The roots of the tridiagonal intersection matrix, similar to the symmetric
        one with off-diagonals sqrt(b_i c_{i+1}), are real and distinct, and are
        solved within a small multiple of 2^-53 b0, its norm; tol = 2^-40 b0. One
        rule claims the exact roots: an integer within tol of a solved root,
        nearest first (so 0.196 in C_64 cannot take 0's place), then for each
        unclaimed x the partner y of least miss, whose sum and product lie within
        2 tol and tol (|x| + |y| + 1) of integers, read from the sorted fractional
        parts. The claimed factor t^2 - s t + p takes s = x + y and s^2 - 2 p =
        x^2 + y^2 from the exact power sums of the unclaimed roots, less the other
        unclaimed floats: exact for the last pair, where float64 may not hold the
        entries. A claim stands when its factor's value at z = 4 b0 + 2 divides
        P(z), an O(1) test, and P vanishes on it exactly (_charpoly_mod, O(d)).
        Claimed roots take exact, positive integer multiplicities; roots of
        irreducible factors of degree 3 or more stay floats, with multiplicities
        within 1e-6 of integers, below order 2^52.
        """
        d, b, c = self.diameter, self.b, self.c
        check_dense_order(d + 1, f"drg of diameter {d}")
        a, kj = self._a, self._k
        n = sum(kj)

        def multiplicity(theta):
            """m(theta) = n / sum_j k_j u_j(theta)^2 via the standard u recurrence.

            theta is one exact root, or a numpy array of float roots that run
            the recurrence together.
            """
            u_prev = Quadratic(1) if isinstance(theta, Quadratic) else 1.0
            u_cur = theta / b[0]
            total = kj[0] * (u_prev * u_prev) + kj[1] * (u_cur * u_cur)
            for j in range(1, d):
                u_next = ((theta - a[j]) * u_cur - c[j - 1] * u_prev) / b[j]
                total = total + kj[j + 1] * (u_next * u_next)
                u_prev, u_cur = u_cur, u_next
            return n / total

        off = np.sqrt([float(x * y) for x, y in zip(b, c)])
        sym = np.diag([float(x) for x in a]) + np.diag(off, 1) + np.diag(off, -1)
        xs, tol = eigenvalues(sym), b[0] / 2**40
        free, ints, near = np.ones(d + 1, dtype=bool), [], np.abs(xs - np.rint(xs))
        # solved roots lie within 2 b0, so z exceeds every root of P and of a candidate:
        # P(z) > 0, and a monic factor's value at z divides it. Modulo (t - r)^2, P(r) = u + r v
        z = 4 * b[0] + 2
        u, v = self._charpoly_mod(2 * z, z * z)
        pz = u + z * v
        # the power sums of the roots not yet claimed: trace(A) and trace(A^2), less the claimed
        left = [sum(a), sum(x * x for x in a) + 2 * sum(x * y for x, y in zip(b, c))]
        for i in np.argsort(near, kind="stable")[: np.count_nonzero(near <= tol)]:
            r = round(float(xs[i]))
            if r in ints or pz % (z - r):
                continue
            u, v = self._charpoly_mod(2 * r, r * r)
            if u + r * v == 0:
                ints.append(r)
                free[i] = False
                left = [left[0] - r, left[1] - r * r]
        roots = [Quadratic(r) for r in ints]
        if free.any():  # pairs among the roots left
            order = np.argsort(xs % 1.0, kind="stable")
            # y may pair with x when its fractional part lies within 2 tol of -x's, on the circle
            ring, partners = np.concatenate([xs[order] % 1.0 + k for k in (-1, 0, 1)]), np.tile(order, 3)
            lo, hi = np.searchsorted(ring, -xs % 1.0 + [[-2 * tol], [2 * tol]])
            for i in np.flatnonzero(free & (hi > lo)):
                js = partners[lo[i] : hi[i]]
                sums, prods = xs[i] + xs[js], xs[i] * xs[js]
                miss = np.maximum(np.abs(sums - np.rint(sums)) / (2 * tol),
                                  np.abs(prods - np.rint(prods)) / (tol * (abs(xs[i]) + np.abs(xs[js]) + 1)))
                miss[~free[js] | (js == i)] = np.inf
                if not free[i] or miss.min() > 1:
                    continue
                others = free.copy()
                others[[i, js[miss.argmin()]]] = False
                # x + y and x^2 + y^2 are the integer power sums left less the other roots left:
                # exact when no others are left, where float64 may not hold the array's entries
                s = left[0] - round(float(xs[others].sum()))
                p = (s * s - left[1] + round(float(xs[others] @ xs[others]))) // 2
                disc = s * s - 4 * p  # a square one gives integers, claimed above
                if (disc > 0 and math.isqrt(disc) ** 2 != disc and pz % (z * z - s * z + p) == 0
                        and self._charpoly_mod(s, p) == (0, 0)):
                    roots += [Quadratic(s, 1, disc) / 2, Quadratic(s, -1, disc) / 2]
                    free, left = others, [left[0] - s, left[1] - s * s + 2 * p]
        numeric = xs[free][::-1]
        if len(numeric) and n >= 2**52:
            # every float64 from 2^52 up is an integer: the test below would pass anything
            raise InfeasibleIntersectionArray(f"order {decimal_or_bits(n)} is at least 2^52, "
                                              "too large to test float multiplicities for integrality")

        pairs = []
        for theta in roots:
            m = multiplicity(theta)
            whole = m.as_integer()
            if whole is None or whole <= 0:
                raise InfeasibleIntersectionArray(
                    f"multiplicity {m} of eigenvalue {theta} is not a positive integer"
                )
            pairs.append((theta, whole))
        if len(numeric):
            for theta, m in zip(numeric.tolist(), multiplicity(numeric).tolist()):
                mult = round(m)
                if mult < 1 or abs(m - mult) > 1e-6:
                    raise InfeasibleIntersectionArray(
                        f"multiplicity {m} of eigenvalue {theta} is not close to a positive integer"
                    )
                pairs.append((theta, mult))
        total_mult = sum(mult for _, mult in pairs)
        if total_mult != n:
            raise InfeasibleIntersectionArray(
                f"multiplicities sum to {total_mult}, expected order {n}"
            )
        return Spectrum(pairs)

    def to_json_obj(self) -> dict:
        return {"kind": "intersection-array", "b": list(self.b), "c": list(self.c)}


# -- descriptor combinators ----------------------------------------------------


def _complement(a: SpectralDescriptor, name: str) -> Explicit:
    """Complement of a graph built from the tree; only explicit leaves are verified."""
    if a.provenance.strength != VERIFIED:
        raise ValueError(f"complement needs an explicit graph, got {a.name}")
    check_dense_order(a.n, name)
    return Explicit(complement(a.provenance.graph))


# -- name grammar ----------------------------------------------------------------


def _parse_int(tok: str, off: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GraphParseError(f"expected an integer, got '{tok}'", off) from None


def _parse_int_list(tok: str, off: int) -> list[int]:
    if not tok:
        raise GraphParseError("expected a comma-separated integer list", off)
    out = []
    pos = off
    for piece in tok.split(","):
        out.append(_parse_int(piece, pos))
        pos += len(piece) + 1
    return out


def parse_expression(text: str) -> SpectralDescriptor:
    """Evaluate a graph/descriptor expression in the shared name grammar.

    Surrounding whitespace is ignored; error offsets count from text as given.
    """
    return _parse_expr(text.strip(), len(text) - len(text.lstrip()), 0)


#: parameterless names and their builders
_PRESETS = {
    "petersen": _petersen,
    "icosahedron": _icosahedron,
    "gosset": lambda: IntersectionArray((27, 10, 1), (1, 10, 27)),
    # The Taylor double cover of the regular two-graph on 276 points (Brouwer,
    # Cohen and Neumaier, Distance-Regular Graphs, 1989), 552 vertices; its
    # 24th eigenvalue, 55, gives table row 24.
    "taylor-co3": lambda: IntersectionArray((275, 112, 1), (1, 112, 275)),
}

#: heads that take a fixed list of integers: parameter names and builder
_INTEGER_HEADS = {
    "complete": ("n", _complete),
    "cycle": ("n", _cycle),
    "johnson": ("m,r", _johnson),
    "paley": ("q", _paley),
    "srg": ("v,k,l,m", SrgParams),
}

#: one line naming every expression form, for help text
GRAMMAR = " | ".join(
    [f"{head}:{params}" for head, (params, _) in _INTEGER_HEADS.items()]
    + list(_PRESETS)
    + ["drg:b0,..;c1,..", "g6:<string>", "union:<a>+<b>", "complement:<a>", "blowup:<a>,t"]
)


def _parse_expr(s: str, off: int, depth: int) -> SpectralDescriptor:
    """The descriptor s names; depth counts the operators s is nested in.

    Every branch yields the canonical name and the provenance, and the one
    construction below derives the spectrum from them.
    """
    if depth > _MAX_NESTING:
        raise GraphParseError(f"expression nests more than {_MAX_NESTING} operators deep", off)
    if not s:
        raise GraphParseError("empty graph expression", off)
    head, sep, rest = s.partition(":")
    roff = off + len(head) + 1
    if s in _PRESETS:
        name, prov = s, _PRESETS[s]()
    elif not sep:
        raise GraphParseError(f"unknown graph name '{s}'", off)
    elif head in _INTEGER_HEADS:
        params, build = _INTEGER_HEADS[head]
        arity = params.count(",") + 1
        if not rest or rest.count(",") + 1 != arity:
            plural = "s" if arity > 1 else ""
            raise GraphParseError(f"{head} takes exactly {arity} integer{plural} {params}", roff)
        ints = _parse_int_list(rest, roff)
        name, prov = f"{head}:{','.join(map(str, ints))}", build(*ints)
    elif head == "drg":
        bpart, sep2, cpart = rest.partition(";")
        if not sep2:
            raise GraphParseError("drg needs ';' between the b and c sequences", roff)
        b = _parse_int_list(bpart, roff)
        c = _parse_int_list(cpart, roff + len(bpart) + 1)
        name, prov = f"drg:{','.join(map(str, b))};{','.join(map(str, c))}", IntersectionArray(b, c)
    elif head == "g6":
        try:
            g = g6_decode(rest)
        except GraphParseError as e:
            shift = roff + (e.offset or 0)
            raise GraphParseError(f"bad graph6 literal: {e.reason}", shift) from None
        name, prov = s, Explicit(g)
    elif head == "union":
        cut = rest.rfind("+")
        if cut < 0:
            raise GraphParseError("union needs '+' between two operands", roff)
        a = _parse_expr(rest[:cut], roff, depth + 1)
        b = _parse_expr(rest[cut + 1 :], roff + cut + 1, depth + 1)
        name, prov = f"union:{a.name}+{b.name}", Derived("union", (a, b))
    elif head == "complement":
        a = _parse_expr(rest, roff, depth + 1)
        name = f"complement:{a.name}"
        prov = _complement(a, name)
    elif head == "blowup":
        cut = rest.rfind(",")
        if cut < 0:
            raise GraphParseError("blowup needs ',t' after the operand", roff)
        t = _parse_int(rest[cut + 1 :], roff + cut + 1)
        a = _parse_expr(rest[:cut], roff, depth + 1)
        name, prov = f"blowup:{a.name},{t}", Derived("blowup", (a,), t)
    else:
        raise GraphParseError(f"unknown constructor '{head}'", off)
    return SpectralDescriptor(name, prov)
