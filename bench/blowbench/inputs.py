"""Seeded inputs for the stream workload, and the exhaustive oracle.

The stream is graph6 text: mostly order-10 graphs with some of orders 7..12
and varied edge density, a share of vertex relabelings of earlier lines, some
exact repeats, a '>>graph6<<' header and blank lines. Fresh graphs are drawn
with pairwise distinct sorted (degree, triangles) vertex invariants, so no
two of them are isomorphic and the number of isomorphism classes in the
stream is exactly the number of fresh graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracles as O

ORDERS = (7, 8, 9, 10, 11, 12)
# Few order-7 lines: there are only 1044 classes on 7 vertices.
ORDER_WEIGHTS = (0.002, 0.02, 0.10, 0.70, 0.11, 0.068)
RELABEL_SHARE = 0.20
REPEAT_SHARE = 0.05
BLANK_SHARE = 0.01
DENSITY = (0.2, 0.8)
HEADER = ">>graph6<<"
CHUNK = 8192  # graphs per batch, to bound set-up memory


@dataclass
class StreamInput:
    text: list[str]            # every line, blanks and header included
    ratios: list[float | None]  # oracle ratio per line, None for blank lines
    graph_lines: int
    distinct: int              # isomorphism classes among the graph lines
    best: float                # oracle maximum over all graph lines


def _distinct_graphs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """count random graphs on n vertices (uint8 adjacency), no two sharing vertex invariants."""
    i, j = O._pair_order(n)
    seen: set[bytes] = set()
    keep: list[np.ndarray] = []
    for _ in range(1000):
        if len(keep) >= count:
            break
        batch = min(CHUNK, 2 * (count - len(keep)) + 64)
        p = rng.uniform(*DENSITY, size=batch)
        bits = rng.random((batch, len(i))) < p[:, None]
        a = np.zeros((batch, n, n), dtype=np.float32)  # small integers: exact in float32
        a[:, i, j] = bits
        a[:, j, i] = bits
        deg = a.sum(axis=2).astype(np.int64)
        tri = ((a @ a) * a).sum(axis=2).astype(np.int64) // 2
        codes = np.sort(deg * 64 + tri, axis=1)
        for row in range(batch):
            key = codes[row].tobytes()
            if key not in seen and len(keep) < count:
                seen.add(key)
                keep.append(a[row].astype(np.uint8))
    if len(keep) < count:
        raise RuntimeError(f"could not draw {count} distinct graphs on {n} vertices")
    return np.array(keep).reshape(count, n, n)


def _ratios(mats: np.ndarray, k: int) -> np.ndarray:
    return np.concatenate([O.ratios_of(mats[s:s + CHUNK].astype(np.float64), k)
                           for s in range(0, len(mats), CHUNK)])


def stream_input(seed: int, graph_lines: int, k: int) -> StreamInput:
    rng = np.random.default_rng(seed)
    kinds = rng.choice(3, size=graph_lines, p=[1 - RELABEL_SHARE - REPEAT_SHARE, RELABEL_SHARE, REPEAT_SHARE])
    kinds[0] = 0
    fresh_pos = np.flatnonzero(kinds == 0)
    fresh_order = rng.choice(ORDERS, size=len(fresh_pos), p=ORDER_WEIGHTS)

    lines: list[str | None] = [None] * graph_lines
    ratio = np.zeros(graph_lines)
    mats: dict[int, np.ndarray] = {}
    fresh_ratio = np.zeros(len(fresh_pos))
    fresh_slot = np.zeros(len(fresh_pos), dtype=np.int64)  # index within its order's batch
    for n in ORDERS:
        members = np.flatnonzero(fresh_order == n)
        if not len(members):
            continue
        mats[n] = _distinct_graphs(rng, n, len(members))
        fresh_slot[members] = np.arange(len(members))
        fresh_ratio[members] = _ratios(mats[n], k)
        for slot, text in zip(members, O.g6_strings(n, O.edge_bits(mats[n]))):
            lines[fresh_pos[slot]] = text
    ratio[fresh_pos] = fresh_ratio

    # relabelings of a uniformly chosen earlier fresh graph
    fresh_before = np.cumsum(kinds == 0) - (kinds == 0)
    relabel_pos = np.flatnonzero(kinds == 1)
    src = (rng.random(len(relabel_pos)) * fresh_before[relabel_pos]).astype(np.int64)
    for n in ORDERS:
        members = np.flatnonzero(fresh_order[src] == n)
        if not len(members):
            continue
        base = mats[n][fresh_slot[src[members]]]
        perm = rng.permuted(np.tile(np.arange(n), (len(members), 1)), axis=1)
        rows = np.arange(len(members))[:, None, None]
        relabeled = base[rows, perm[:, :, None], perm[:, None, :]]
        for m, text in zip(members, O.g6_strings(n, O.edge_bits(relabeled))):
            lines[relabel_pos[m]] = text
    ratio[relabel_pos] = fresh_ratio[src]

    # exact repeats of any earlier line
    for pos in np.flatnonzero(kinds == 2):
        earlier = int(rng.integers(pos))
        lines[pos] = lines[earlier]
        ratio[pos] = ratio[earlier]

    text: list[str] = []
    ratios: list[float | None] = []
    blanks = rng.random(graph_lines) < BLANK_SHARE
    for pos in range(graph_lines):
        text.append(lines[pos])
        ratios.append(float(ratio[pos]))
        if blanks[pos]:
            text.append("")
            ratios.append(None)
    text[0] = HEADER + text[0]
    return StreamInput(text, ratios, graph_lines, len(fresh_pos), float(ratio.max()))


def atlas_max(n: int, k: int) -> tuple[float, int]:
    """Maximum ratio over the networkx graph atlas on n <= 7 vertices, and the class count."""
    import networkx as nx

    graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]
    mats = np.stack([nx.to_numpy_array(g, nodelist=range(n)) for g in graphs])
    return float(O.ratios_of(mats, k).max()), len(graphs)
