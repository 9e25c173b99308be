"""Unit tests for BFS traversal, connectivity and distance computations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    GraphError,
    all_pairs_distances,
    bfs_distances,
    bfs_layers,
    bfs_tree,
    connected_components,
    cycle_graph,
    eccentricities,
    grid_graph,
    is_connected,
    path_graph,
    shortest_path,
    star_graph,
)


class TestBfsDistances:
    def test_path_distances(self):
        d = bfs_distances(path_graph(5), 0)
        assert list(d) == [0, 1, 2, 3, 4]

    def test_from_middle(self):
        d = bfs_distances(path_graph(5), 2)
        assert list(d) == [2, 1, 0, 1, 2]

    def test_unreachable_marked_minus_one(self):
        g = Graph.from_edges(4, [(0, 1)])
        d = bfs_distances(g, 0)
        assert d[2] == -1 and d[3] == -1

    def test_invalid_source(self):
        with pytest.raises(GraphError):
            bfs_distances(path_graph(3), 9)

    def test_cycle_distances(self):
        d = bfs_distances(cycle_graph(6), 0)
        assert list(d) == [0, 1, 2, 3, 2, 1]


class TestBfsLayers:
    def test_star_layers(self):
        layers = bfs_layers(star_graph(6), 0)
        assert layers == [[0], [1, 2, 3, 4, 5]]

    def test_grid_layers_partition_nodes(self):
        g = grid_graph(3, 3)
        layers = bfs_layers(g, 0)
        flat = [v for layer in layers for v in layer]
        assert sorted(flat) == list(range(9))

    def test_layers_respect_distances(self):
        g = grid_graph(4, 4)
        d = bfs_distances(g, 5)
        for depth, layer in enumerate(bfs_layers(g, 5)):
            assert all(d[v] == depth for v in layer)


class TestBfsTreeAndPaths:
    def test_parents_are_closer(self):
        g = grid_graph(3, 4)
        d = bfs_distances(g, 0)
        parent = bfs_tree(g, 0)
        assert parent[0] is None
        for v, p in parent.items():
            if p is not None:
                assert d[p] == d[v] - 1

    def test_parent_is_smallest_candidate(self):
        g = Graph.from_edges(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        # from source 2: node 3's parents candidates are 0 and 1 -> 0
        parent = bfs_tree(g, 2)
        assert parent[3] == 0

    def test_shortest_path_endpoints(self):
        g = grid_graph(3, 3)
        p = shortest_path(g, 0, 8)
        assert p is not None
        assert p[0] == 0 and p[-1] == 8
        assert len(p) == bfs_distances(g, 0)[8] + 1

    def test_shortest_path_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert shortest_path(g, 0, 3) is None

    def test_shortest_path_to_self(self):
        assert shortest_path(path_graph(4), 2, 2) == [2]

    @pytest.mark.parametrize("corrupt", [
        {0: None, 1: 0, 2: 1, 3: None},  # the walk hits None before the source
        {0: None, 1: 2, 2: 3, 3: 1},     # the walk cycles, never reaching 0
    ])
    def test_corrupted_parent_map_raises_graph_error(self, monkeypatch, corrupt):
        # A real exception, not an assert, so the check survives python -O.
        from repro.graphs import traversal

        monkeypatch.setattr(traversal, "bfs_tree", lambda graph, source: corrupt)
        with pytest.raises(GraphError, match="do not lead back to source 0"):
            shortest_path(path_graph(4), 0, 3)


class TestConnectivity:
    def test_connected_components(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        comps = connected_components(g)
        assert comps == [[0, 1, 2], [3, 4], [5]]

    def test_is_connected(self):
        assert is_connected(path_graph(10))
        assert not is_connected(Graph.from_edges(3, [(0, 1)]))
        assert is_connected(Graph.empty(1))
        assert is_connected(Graph.empty(0))


class TestDistanceMatrices:
    def test_all_pairs_symmetric(self):
        g = grid_graph(3, 3)
        d = all_pairs_distances(g)
        assert np.array_equal(d, d.T)
        assert d[0, 8] == 4

    def test_eccentricities_path(self):
        ecc = eccentricities(path_graph(5))
        assert ecc[0] == 4 and ecc[2] == 2

    def test_eccentricities_subset(self):
        ecc = eccentricities(path_graph(7), sources=[3])
        assert ecc == {3: 3}

    def test_eccentricities_disconnected_raises(self):
        with pytest.raises(GraphError):
            eccentricities(Graph.from_edges(4, [(0, 1)]))
