"""The CSR-first graph, its traversals, graph powers and the band geometric
sweep against oracles.

``tests/oracles.py`` keeps the set-based graph (a Python set insert per edge,
a CSR slice write per node, an eager edge set), the BFS that walks NumPy
scalars off the CSR arrays, the graph power built from a full BFS per node,
and the dense ``n × n`` geometric comparison.  The array-built
:class:`Graph`, the plain-int BFS, the depth-limited graph power and the
x-band geometric sweep must reproduce them exactly, errors included.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.graphs import Graph, GraphError, generators, properties, traversal
from repro.graphs.generators import family_names, generate_family

Case = Tuple[int, List[Tuple[int, int]], Optional[List[str]]]


@st.composite
def edge_lists(draw, valid: bool = False) -> Case:
    """Edge lists with duplicates, both orientations and isolated nodes.

    Unless ``valid``, node ids and the node count stray out of range, edges
    may be self-loops and ``names`` may have the wrong length.
    """
    n = draw(st.integers(0 if valid else -1, 12))
    node = st.integers(0, max(n - 1, 0)) if valid else st.integers(-2, n + 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=30))
    if valid:
        edges = [(u, v) for u, v in edges if u != v and 0 <= u < n]
    flipped = [(v, u) for u, v in edges[: draw(st.integers(0, len(edges)))]]
    repeated = edges[: draw(st.integers(0, len(edges)))]
    edges = draw(st.permutations(edges + flipped + repeated))
    size = max(n, 0) + (0 if valid else draw(st.sampled_from([0, 0, 0, 1, -1])))
    names = draw(st.none() | st.just([f"v{i}" for i in range(max(size, 0))]))
    return n, edges, names


def _outcome(build):
    try:
        return build(), None
    except GraphError as exc:
        return None, exc


def _assert_same_graph(new: Graph, old: oracles.SetGraph) -> None:
    n = old.n
    assert new.n == n and new.names == old.names
    for ours, theirs in zip(new.csr(), old.csr()):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    assert [new.neighbors(u) for u in range(n)] == [old.neighbors(u) for u in range(n)]
    assert np.array_equal(new.degrees(), old.degrees())
    assert new.edge_set == old.edge_set
    assert list(new.edges()) == list(old.edges())
    assert new.num_edges == old.num_edges
    assert all(new.has_edge(u, v) == old.has_edge(u, v)
               for u in range(n) for v in range(n))


def _same_error(new_err, old_err) -> None:
    assert type(new_err) is type(old_err)
    assert str(new_err) == str(old_err)


# --------------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------------- #
class TestConstructionMatchesSetBased:
    @settings(max_examples=300, deadline=None)
    @given(case=edge_lists())
    def test_from_edges(self, case: Case):
        n, edges, names = case
        old, old_err = _outcome(lambda: oracles.SetGraph.from_edges(n, edges, names))
        new, new_err = _outcome(lambda: Graph.from_edges(n, edges, names))
        _same_error(new_err, old_err)
        if old is not None:
            _assert_same_graph(new, old)

    @settings(max_examples=300, deadline=None)
    @given(case=edge_lists())
    def test_constructor_with_an_edge_set(self, case: Case):
        # Canonical (u < v) pairs wherever possible, so the set-based edge
        # set is the one the new graph exposes; invalid pairs stay as drawn.
        n, edges, names = case
        edge_set = frozenset((min(e), max(e)) if e[0] != e[1] else e for e in edges)
        names = tuple(names) if names is not None else None
        old, old_err = _outcome(lambda: oracles.SetGraph(n=n, edge_set=edge_set, names=names))
        new, new_err = _outcome(lambda: Graph(n=n, edge_set=edge_set, names=names))
        _same_error(new_err, old_err)
        if old is not None:
            _assert_same_graph(new, old)

    @settings(max_examples=200, deadline=None)
    @given(case=edge_lists(valid=True), data=st.data())
    def test_equality_and_hash(self, case: Case, data):
        n, edges, _ = case
        new, old = Graph.from_edges(n, edges), oracles.SetGraph.from_edges(n, edges)
        # The same edges in another order and orientation: equal, same hash.
        other_edges = [(v, u) for u, v in data.draw(st.permutations(edges))]
        assert new == Graph.from_edges(n, other_edges)
        assert hash(new) == hash(Graph.from_edges(n, other_edges))
        # One edge fewer, or one node more: equal iff the set-based graphs are.
        fewer = edges[1:]
        assert (new == Graph.from_edges(n, fewer)) == (
            old == oracles.SetGraph.from_edges(n, fewer))
        assert new != Graph.from_edges(n + 1, edges)

    @pytest.mark.parametrize("edges", [
        [(np.uint64(1), 0), (1, 2)],  # NumPy and Python ints mixed
        [(np.int32(2), 1), (0, np.int64(1))],
        [(True, 0), (2, 1)],
    ])
    def test_integer_like_node_ids(self, edges):
        _assert_same_graph(Graph.from_edges(3, edges), oracles.SetGraph.from_edges(3, edges))

    def test_same_degrees_different_edges_are_unequal(self):
        # Equal indptr arrays, different indices: equality reads both.
        a = Graph.from_edges(4, [(0, 1), (2, 3)])
        b = Graph.from_edges(4, [(0, 2), (1, 3)])
        assert np.array_equal(a.csr()[0], b.csr()[0])
        assert a != b and oracles.SetGraph.from_edges(4, [(0, 1), (2, 3)]) != (
            oracles.SetGraph.from_edges(4, [(0, 2), (1, 3)]))

    def test_n_zero_and_one(self):
        for n in (0, 1):
            _assert_same_graph(Graph.from_edges(n, []), oracles.SetGraph.from_edges(n, []))
            _assert_same_graph(Graph.empty(n), oracles.SetGraph(n=n, edge_set=frozenset()))
        _same_error(_outcome(lambda: Graph.from_edges(1, [(0, 1)]))[1],
                    _outcome(lambda: oracles.SetGraph.from_edges(1, [(0, 1)]))[1])

    def test_edge_set_is_built_lazily(self):
        graph = generate_family("gnp_sparse", 64, 3)
        assert "edge_set" not in vars(graph)
        assert graph == generate_family("gnp_sparse", 64, 3)
        assert graph.num_edges > 0 and hash(graph) == hash(generate_family("gnp_sparse", 64, 3))
        assert "edge_set" not in vars(graph)
        assert len(graph.edge_set) == graph.num_edges
        assert "edge_set" in vars(graph)


# --------------------------------------------------------------------------- #
# traversal
# --------------------------------------------------------------------------- #
@st.composite
def graphs(draw) -> Graph:
    n, edges, _ = draw(edge_lists(valid=True).filter(lambda c: c[0] >= 1))
    if draw(st.booleans()):  # connected: thread a path through every node
        edges = edges + [(i, i + 1) for i in range(n - 1)]
    return Graph.from_edges(n, edges)


def _assert_traversals_match(graph: Graph, sources: Sequence[int]) -> None:
    assert traversal.connected_components(graph) == oracles.connected_components(graph)
    assert traversal.is_connected(graph) == oracles.is_connected(graph)
    for s in sources:
        ours, theirs = traversal.bfs_distances(graph, s), oracles.bfs_distances(graph, s)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
        assert traversal.bfs_layers(graph, s) == oracles.bfs_layers(graph, s)
        tree = traversal.bfs_tree(graph, s)
        assert list(tree.items()) == list(oracles.bfs_tree(graph, s).items())
        for t in range(graph.n):
            assert traversal.shortest_path(graph, s, t) == oracles.shortest_path(graph, s, t)


class TestTraversalsMatchScalarBfs:
    @settings(max_examples=150, deadline=None)
    @given(graph=graphs())
    def test_every_traversal(self, graph: Graph):
        _assert_traversals_match(graph, range(graph.n))

    @pytest.mark.parametrize("family", family_names())
    def test_every_family(self, family):
        graph = generate_family(family, 60, 5)
        _assert_traversals_match(graph, [0, graph.n // 2, graph.n - 1])

    def test_empty_graph(self):
        graph = Graph.empty(0)
        assert traversal.connected_components(graph) == oracles.connected_components(graph)
        assert traversal.is_connected(graph) and oracles.is_connected(graph)

    @pytest.mark.parametrize("fn", ["bfs_distances", "bfs_layers", "bfs_tree"])
    @pytest.mark.parametrize("source", [-1, 4, 2.5])
    def test_invalid_source_errors(self, fn, source):
        graph = Graph.from_edges(4, [(0, 1), (2, 3)])
        _same_error(_outcome(lambda: getattr(traversal, fn)(graph, source))[1],
                    _outcome(lambda: getattr(oracles, fn)(graph, source))[1])

    def test_invalid_target_error(self):
        graph = Graph.from_edges(4, [(0, 1), (2, 3)])
        _same_error(_outcome(lambda: traversal.shortest_path(graph, 0, 9))[1],
                    _outcome(lambda: oracles.shortest_path(graph, 0, 9))[1])


# --------------------------------------------------------------------------- #
# graph powers: depth-limited balls against a full BFS per node
# --------------------------------------------------------------------------- #
class TestGraphPowerMatchesFullBfs:
    @settings(max_examples=150, deadline=None)
    @given(graph=graphs(), k=st.integers(1, 3))
    def test_hypothesis_graphs(self, graph: Graph, k: int):
        assert properties.graph_power(graph, k) == oracles.graph_power(graph, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("family", family_names())
    def test_every_family(self, family, k):
        graph = generate_family(family, 40, 2)
        assert properties.graph_power(graph, k) == oracles.graph_power(graph, k)

    def test_square_is_the_second_power(self):
        graph = generate_family("caterpillar", 50, 1)
        assert properties.graph_square(graph) == oracles.graph_power(graph, 2)
        assert properties.graph_power(graph, 1) == graph

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_power_errors(self, k):
        graph = Graph.from_edges(3, [(0, 1)])
        _same_error(_outcome(lambda: properties.graph_power(graph, k))[1],
                    _outcome(lambda: oracles.graph_power(graph, k))[1])

    def test_empty_graph(self):
        graph = Graph.empty(0)
        assert properties.graph_power(graph, 2) == oracles.graph_power(graph, 2)


# --------------------------------------------------------------------------- #
# the geometric band sweep, at and around exactly the radius
# --------------------------------------------------------------------------- #
def _pairs(pts: np.ndarray, radius: float) -> List[Tuple[int, int]]:
    lo, hi = generators._geometric_pairs(pts, radius)
    return list(zip(lo.tolist(), hi.tolist()))


class TestGeometricBandMatchesDense:
    def test_pairs_at_exactly_the_radius(self):
        pts = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.0, 0.25],
                        [0.25, 0.25], [0.75, 0.5]])
        pairs = _pairs(pts, 0.25)
        assert pairs == oracles.geometric_pairs(pts, 0.25)
        assert (0, 1) in pairs  # dx equal to the radius
        assert (0, 3) in pairs  # dy equal to the radius
        assert (0, 4) not in pairs  # the diagonal is longer

    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40),
        radius=st.integers(1, 24),
        block=st.integers(1, 60),
    )
    def test_lattice_points_with_ties(self, cells, radius, block):
        # Coordinates and radius on a 1/16 lattice: many pairs sit at
        # exactly the radius, and tiny blocks straddle every row.
        pts = np.array(cells, dtype=float).reshape(-1, 2) / 16
        with mock.patch.object(generators, "_BLOCK_ENTRIES", block):
            assert _pairs(pts, radius / 16) == oracles.geometric_pairs(pts, radius / 16)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 80), radius=st.floats(0.01, 2.0), seed=st.integers(0, 10_000))
    def test_uniform_points(self, n, radius, seed):
        pts = np.random.default_rng(seed).random((n, 2))
        assert _pairs(pts, radius) == oracles.geometric_pairs(pts, radius)
