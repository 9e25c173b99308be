"""Graph traversal primitives: BFS layers, shortest paths, connectivity.

These are the building blocks for both the labeling schemes (which reason
about the distance structure from the source) and the analysis code (diameter,
radius, eccentricities).  Everything is deterministic: ties are always broken
by node index so repeated runs produce identical results.

Every traversal is one level-synchronous BFS (:func:`_bfs`) over the graph's
per-node neighbour frozensets, so it only touches plain Python ints: no NumPy
scalar is read or compared per edge.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph, GraphError

__all__ = [
    "bfs_distances",
    "bfs_layers",
    "bfs_tree",
    "connected_components",
    "is_connected",
    "shortest_path",
    "all_pairs_distances",
    "eccentricities",
]


def _bfs(adj: Sequence[FrozenSet[int]], source: int, dist: List[int]) -> List[List[int]]:
    """Level-synchronous BFS from ``source`` over plain-int adjacency sets.

    ``dist`` holds ``-1`` for every node not reached yet; the nodes this
    search reaches get their hop distance from ``source``.  Returns the
    levels (each in discovery order).
    """
    dist[source] = 0
    frontier = [source]
    levels = [frontier]
    d = 0
    while True:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        if not nxt:
            return levels
        levels.append(nxt)
        frontier = nxt


def _levels(graph: Graph, source: int) -> Tuple[List[int], List[List[int]]]:
    """``(dist, levels)`` of a BFS from ``source`` (``dist`` as a plain list)."""
    if source not in graph:
        raise GraphError(f"source {source} is not a node of {graph!r}")
    dist = [-1] * graph.n
    return dist, _bfs(graph._adj, int(source), dist)


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every node.

    Unreachable nodes get distance ``-1``.

    Parameters
    ----------
    graph:
        The graph to traverse.
    source:
        Start node.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(n,)``.
    """
    dist, _ = _levels(graph, source)
    return np.array(dist, dtype=np.int64)


def bfs_layers(graph: Graph, source: int) -> List[List[int]]:
    """Partition reachable nodes into BFS layers ``L0={source}, L1, ...``.

    Each layer is sorted by node index.  Unreachable nodes are omitted.
    """
    _, levels = _levels(graph, source)
    return [sorted(level) for level in levels]


def bfs_tree(graph: Graph, source: int) -> Dict[int, Optional[int]]:
    """BFS parent pointers: ``parent[v]`` is v's parent, ``None`` for the source.

    Unreachable nodes are absent from the mapping.  Parents are chosen as the
    smallest-index neighbour in the previous layer, so the tree is canonical.
    """
    dist, _ = _levels(graph, source)
    adj = graph._adj
    parent: Dict[int, Optional[int]] = {source: None}
    for v, d in enumerate(dist):
        if d > 0:
            parent[v] = min(u for u in adj[v] if dist[u] == d - 1)
    return parent


def shortest_path(graph: Graph, source: int, target: int) -> Optional[List[int]]:
    """A shortest path from ``source`` to ``target``, or ``None`` if disconnected.

    The path is the canonical one induced by :func:`bfs_tree` parent pointers.
    """
    if target not in graph:
        raise GraphError(f"target {target} is not a node of {graph!r}")
    parent = bfs_tree(graph, source)
    if target not in parent:
        return None
    path = [target]
    while path[-1] != source:
        nxt = parent.get(path[-1])
        if nxt is None or len(path) > graph.n:
            raise GraphError(
                f"BFS parent pointers from {target} do not lead back to source {source}"
            )
        path.append(nxt)
    path.reverse()
    return path


def connected_components(graph: Graph) -> List[List[int]]:
    """List of connected components, each a sorted list of node indices.

    Components are ordered by their smallest node.
    """
    adj = graph._adj
    dist = [-1] * graph.n
    components: List[List[int]] = []
    for start in range(graph.n):
        if dist[start] < 0:
            levels = _bfs(adj, start, dist)
            components.append(sorted(v for level in levels for v in level))
    return components


def is_connected(graph: Graph) -> bool:
    """Return ``True`` if the graph is connected (single-node graphs count)."""
    if graph.n == 0:
        return True
    _, levels = _levels(graph, 0)
    return sum(map(len, levels)) == graph.n


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """All-pairs hop distance matrix (``-1`` for unreachable pairs).

    Runs one BFS per node — O(n·(n+m)) — which is fine for the graph sizes we
    benchmark (≤ a few thousand nodes).
    """
    out = np.full((graph.n, graph.n), -1, dtype=np.int64)
    for u in range(graph.n):
        out[u] = bfs_distances(graph, u)
    return out


def eccentricities(graph: Graph, sources: Optional[Sequence[int]] = None) -> Dict[int, int]:
    """Eccentricity of each requested node (max hop distance to any node).

    Raises :class:`GraphError` if the graph is disconnected, because
    eccentricity is then undefined for our purposes.
    """
    if not is_connected(graph):
        raise GraphError("eccentricities are only defined for connected graphs")
    nodes = list(sources) if sources is not None else list(range(graph.n))
    out: Dict[int, int] = {}
    for u in nodes:
        dist = bfs_distances(graph, u)
        out[u] = int(dist.max(initial=0))
    return out
