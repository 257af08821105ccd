"""Simple undirected graphs with dense boolean adjacency, plus the graph6 codec.

Vertices are 0..n-1; loops and multi-edges cannot be represented. The constructor
rejects asymmetric or loopy adjacency. Builders, combinators, from_edges and
g6_decode, symmetric by construction, freeze new matrices of their own
(Graph._built) and never mutate.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphParseError

G6_MAX_VERTICES = 258047  # largest order the 4-byte graph6 header can carry

#: largest order of a graph the package builds as a dense matrix and solves
MAX_DENSE_ORDER = 5000


def check_dense_order(n: int, name: str) -> None:
    """Refuse (ValueError) what needs a dense graph of order n above MAX_DENSE_ORDER."""
    if n > MAX_DENSE_ORDER:
        raise ValueError(
            f"{name} needs a dense graph of order {n} or more, beyond the ceiling {MAX_DENSE_ORDER}"
        )


class Graph:
    """Undirected simple graph backed by a read-only boolean matrix."""

    __slots__ = ("_adj",)

    def __init__(self, adjacency):
        a = np.array(adjacency, dtype=bool)
        self._adj = Graph._built(a).adj
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")

    @classmethod
    def _built(cls, a: np.ndarray) -> "Graph":
        """A graph on a bool matrix the package made symmetric, frozen in place: no copy
        and no compare with its transpose. ValueError unless square and loopless."""
        if a.dtype != bool or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if a.shape[0] < 1:
            raise ValueError("a graph needs at least one vertex")
        if a.diagonal().any():
            raise ValueError("loops are not allowed")
        a.setflags(write=False)
        g = cls.__new__(cls)
        g._adj = a
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an edge list; duplicate edges collapse, loops are rejected."""
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        a = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            a[i, j] = a[j, i] = True
        return cls._built(a)

    @property
    def adj(self) -> np.ndarray:
        return self._adj

    @property
    def n(self) -> int:
        return self._adj.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self._adj.sum()) // 2

    def matrix(self) -> np.ndarray:
        return self._adj.astype(np.float64)

    def triangle_count(self) -> int:
        a = self._adj.astype(np.int64)
        return int(np.trace(a @ a @ a)) // 6

    def relabeled(self, perm) -> "Graph":
        """Apply a vertex permutation: new vertex perm[i] is old vertex i."""
        p = np.asarray(perm)
        if p.shape != (self.n,) or not np.array_equal(np.sort(p), np.arange(self.n)):
            raise ValueError(f"a relabeling must be a permutation of range({self.n})")
        inv = np.argsort(p)
        return Graph._built(self._adj[np.ix_(inv, inv)])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._adj, other._adj)

    def __hash__(self):
        return hash((self.n, self._adj.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


# -- constructors ---------------------------------------------------------


def complete(n: int) -> Graph:
    """Complete graph K_n, n >= 1."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    a = np.ones((n, n), dtype=bool)
    np.fill_diagonal(a, False)
    return Graph._built(a)


def cycle(n: int) -> Graph:
    """Cycle C_n, n >= 3."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def empty(n: int) -> Graph:
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    return Graph._built(np.zeros((n, n), dtype=bool))


def random_graph(n: int, rng) -> Graph:
    """G(n, 1/2) from a random.Random: pair (i, j), i < j, in row order is an
    edge when rng.random() < 0.5."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


# -- combinators ------------------------------------------------------------


def disjoint_union(g: Graph, h: Graph) -> Graph:
    a = np.zeros((g.n + h.n, g.n + h.n), dtype=bool)
    a[: g.n, : g.n] = g.adj
    a[g.n :, g.n :] = h.adj
    return Graph._built(a)


def complement(g: Graph) -> Graph:
    a = ~g.adj
    np.fill_diagonal(a, False)
    return Graph._built(a)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian (box) product; vertex (u, v) maps to index u*h.n + v."""
    eg = np.eye(g.n, dtype=bool)
    eh = np.eye(h.n, dtype=bool)
    return Graph._built(np.kron(g.adj, eh) | np.kron(eg, h.adj))


def closed_blowup_graph(g: Graph, t: int) -> Graph:
    """Replace each vertex by a t-clique and each edge by complete bipartite joins.

    Vertex (v, a) maps to index v*t + a. The result is (t*d + t - 1)-regular
    whenever g is d-regular. t == 1 returns a copy of g.
    """
    if t < 1:
        raise ValueError("blowup factor t must be >= 1")
    block = np.ones((t, t), dtype=bool)
    inner = block.copy()
    np.fill_diagonal(inner, False)
    return Graph._built(np.kron(g.adj, block) | np.kron(np.eye(g.n, dtype=bool), inner))


# -- graph6 codec -----------------------------------------------------------
#
# Bytes are printable ASCII 63..126 storing 6-bit groups (value + 63).
# The order goes first, then the upper triangle in column-major order
# x(0,1), x(0,2), x(1,2), x(0,3), ..., six bits per byte, most significant
# bit first, zero-padded to a byte boundary. A is symmetric, so that is the
# lower triangle in row-major order: the codec reads and writes a whole graph
# through the boolean mask np.tri(n, n, -1), on A and on its transpose, and
# the search engines fill the matrices they solve through the same mask, in
# the lower triangle only, which is all the eigensolver reads. Nothing is
# kept per order.


def triu_pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column index arrays for the graph6 bit order on n vertices."""
    jj, ii = np.tril_indices(n, -1)
    return ii, jj


def _encode_order(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= G6_MAX_VERTICES:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise ValueError(f"graph6 order {n} exceeds the supported maximum {G6_MAX_VERTICES}")


def g6_encode_bits(n: int, bits: np.ndarray) -> str:
    """Encode edge bits already in graph6 order (length n*(n-1)//2)."""
    nbits = n * (n - 1) // 2
    if len(bits) != nbits:
        raise ValueError(f"expected {nbits} edge bits, got {len(bits)}")
    pad = (-nbits) % 6
    padded = np.concatenate([bits.astype(np.uint8), np.zeros(pad, dtype=np.uint8)])
    groups = padded.reshape(-1, 6)
    weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    vals = groups @ weights + 63
    return (_encode_order(n) + vals.astype(np.uint8).tobytes()).decode("ascii")


def g6_encode(g: Graph) -> str:
    """Encode a graph as a graph6 string (short or 4-byte long form)."""
    return g6_encode_bits(g.n, g.adj[np.tri(g.n, g.n, -1, dtype=bool)])


#: the graph6 alphabet, bytes 63..126
_G6_ALPHABET = bytes(range(63, 127))


def g6_parse(text: str) -> tuple[int, bytes] | None:
    """Check one graph6 line and split it into its order and payload bytes.

    The package's only copy of the line rule: ASCII whitespace (space, tab,
    CR, LF, VT, FF) is stripped from both ends, then one optional '>>graph6<<'
    header and the whitespace after it are dropped; a line left empty is
    blank and gives None. A bad byte, nonzero padding bits or an inexact byte
    count raise GraphParseError with an offset counted in text as given; an
    order above MAX_DENSE_ORDER raises ValueError before the payload is read.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as e:
        raise GraphParseError("non-ASCII byte in graph6 input", e.start) from None
    body = raw.lstrip()
    if body.startswith(b">>graph6<<"):
        body = body[len(b">>graph6<<") :].lstrip()
    start, body = len(raw) - len(body), body.rstrip()  # start: body's offset in text
    if not body:
        return None
    # one C-level scan; the first byte left over is the first bad one
    bad = body.translate(None, _G6_ALPHABET)
    if bad:
        raise GraphParseError(f"byte {bad[0]} outside the graph6 range 63..126",
                              start + body.index(bad[:1]))

    if body[0] == 126:
        if len(body) >= 2 and body[1] == 126:
            raise GraphParseError("8-byte graph6 order form (n > 258047) is not supported", start)
        if len(body) < 4:
            raise GraphParseError("truncated graph6 order field", start + len(body))
        n = ((body[1] - 63) << 12) | ((body[2] - 63) << 6) | (body[3] - 63)
        pos = 4
    else:
        n = body[0] - 63
        pos = 1
    if n == 0:
        raise GraphParseError("order-0 graph6 string; graphs need at least one vertex", start)
    check_dense_order(n, "graph6 string")

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    payload = body[pos:]
    if len(payload) < nbytes:
        raise GraphParseError(
            f"truncated graph6 payload: need {nbytes} bytes for n={n}, got {len(payload)}",
            start + len(body),
        )
    if len(payload) > nbytes:
        raise GraphParseError("trailing bytes after graph6 payload", start + pos + nbytes)
    if nbytes and (payload[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise GraphParseError("nonzero padding bits in graph6 payload", start + len(body) - 1)
    return n, payload


def g6_unpack(payloads: bytes, n: int, count: int = 1) -> np.ndarray:
    """Edge bits in graph6 order of count checked payloads of order n, joined.

    Returns uint8 of shape (count, n*(n-1)//2).
    """
    nbits = n * (n - 1) // 2
    vals = np.frombuffer(payloads, dtype=np.uint8).reshape(count, (nbits + 5) // 6) - 63
    bits = (vals[:, :, None] >> np.arange(5, -1, -1, dtype=np.uint8)) & 1
    return bits.reshape(count, -1)[:, :nbits]


def g6_decode(text: str) -> Graph:
    """Decode one graph6 string: g6_parse's checks, then the adjacency matrix."""
    parsed = g6_parse(text)
    if parsed is None:
        raise GraphParseError("empty graph6 string", 0)
    n, payload = parsed
    lower, bits = np.tri(n, n, -1, dtype=bool), g6_unpack(payload, n)[0]
    a = np.zeros((n, n), dtype=bool)
    a[lower] = a.T[lower] = bits
    return Graph._built(a)
