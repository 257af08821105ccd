"""Graph container, constructors, and the product operations."""

import numpy as np
import pytest

from blowup.graphs import (
    Graph,
    cartesian_product,
    closed_blowup_graph,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(np.ones((2, 3), dtype=bool))
    loop = np.zeros((3, 3), dtype=bool)
    loop[1, 1] = True
    with pytest.raises(ValueError):
        Graph(loop)
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError):
        Graph(asym)


def test_from_edges():
    g = Graph.from_edges(4, [(0, 1), (1, 0), (2, 3)])  # duplicate collapses
    assert g.edge_count == 2
    assert g.adj[0, 1] and g.adj[1, 0]
    assert not g.adj[0, 2]
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_basic_invariants():
    k5 = complete(5)
    assert k5.n == 5
    assert k5.edge_count == 10
    assert (k5.adj.sum(axis=1) == 4).all()
    assert k5.triangle_count() == 10
    c6 = cycle(6)
    assert c6.edge_count == 6
    assert list(c6.adj.sum(axis=1)) == [2] * 6
    assert c6.triangle_count() == 0
    assert empty(4).edge_count == 0
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete(0)


def test_adjacency_read_only():
    g = complete(3)
    with pytest.raises(ValueError):
        g.adj[0, 1] = False


def test_relabel_preserves_structure():
    g = cycle(5)
    h = g.relabeled([1, 2, 3, 4, 0])
    assert h.edge_count == g.edge_count
    assert sorted(h.adj.sum(axis=1)) == sorted(g.adj.sum(axis=1))
    assert h == g  # C5 is vertex-transitive under rotation


@pytest.mark.parametrize("perm", [[0, 0, 2], [0, 1], [0, 1, 2, 3], [0, 1, 3], [0, 1, -1], [[0, 1, 2]]])
def test_relabel_refuses_a_non_permutation(perm):
    # a repeated, missing or out-of-range vertex would leave a row of the
    # inverse uninitialised
    with pytest.raises(ValueError, match="permutation of range\\(3\\)"):
        Graph.from_edges(3, [(0, 1)]).relabeled(perm)


def test_eq_and_hash():
    assert complete(3) == complete(3)
    assert complete(3) != cycle(3) or complete(3) == cycle(3)  # C3 == K3
    assert cycle(3) == complete(3)
    assert hash(complete(4)) == hash(complete(4))
    assert complete(4) != complete(5)


def test_disjoint_union():
    g = disjoint_union(complete(3), complete(2))
    assert g.n == 5
    assert g.edge_count == 4
    assert g.adj[0, 1] and g.adj[3, 4]
    assert not g.adj[2, 3]


def test_complement():
    g = complement(complete(4))
    assert g.edge_count == 0
    h = complement(empty(3))
    assert h == complete(3)
    c5 = cycle(5)
    assert complement(complement(c5)) == c5


def test_cartesian_product():
    # K2 [] K2 is the 4-cycle
    q = cartesian_product(complete(2), complete(2))
    assert q.n == 4
    assert q.edge_count == 4
    assert sorted(q.adj.sum(axis=1)) == [2, 2, 2, 2]
    assert q.triangle_count() == 0
    # rook's graph K3 [] K3: 9 vertices, 4-regular
    r = cartesian_product(complete(3), complete(3))
    assert r.n == 9
    assert (r.adj.sum(axis=1) == 4).all()


def test_closed_blowup_structure():
    # closed t-blowup of K1 is K_t
    assert closed_blowup_graph(complete(1), 3) == complete(3)
    # closed t-blowup of K_m is K_{mt}
    assert closed_blowup_graph(complete(3), 2) == complete(6)
    # t = 1 is the identity
    g = cycle(5)
    assert closed_blowup_graph(g, 1) == g
    # order and regular degree: each vertex joins its own t-clique plus
    # t copies of each neighbor
    b = closed_blowup_graph(cycle(5), 3)
    assert b.n == 15
    assert (b.adj.sum(axis=1) == (3 - 1) + 3 * 2).all()
    with pytest.raises(ValueError):
        closed_blowup_graph(g, 0)
