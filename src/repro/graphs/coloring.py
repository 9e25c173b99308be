"""Greedy graph colouring.

The paper's introduction observes that a proper colouring of ``G²`` gives an
``O(log Δ)``-bit labeling for broadcast (colours act as TDMA slots; any two
nodes within distance two get distinct slots, so no collisions ever occur at a
common neighbour).  This module provides the colouring machinery that the
:mod:`repro.baselines.coloring_tdma` baseline builds on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .graph import Graph, GraphError
from .properties import degeneracy_ordering, graph_square

__all__ = [
    "greedy_coloring",
    "square_coloring",
    "is_proper_coloring",
    "color_classes",
]


def greedy_coloring(graph: Graph, order: Optional[Sequence[int]] = None) -> Dict[int, int]:
    """Greedy proper colouring of ``graph``.

    Parameters
    ----------
    graph:
        The graph to colour.
    order:
        Node processing order.  Defaults to the degeneracy (smallest-last)
        ordering, which guarantees at most ``degeneracy(G) + 1`` colours and in
        particular at most ``Δ + 1``.

    Returns
    -------
    dict
        Mapping node → colour index starting at 0.
    """
    if order is None:
        order = degeneracy_ordering(graph)
    else:
        order = list(order)
        if sorted(order) != list(range(graph.n)):
            raise GraphError("colouring order must be a permutation of the nodes")
    colours: Dict[int, int] = {}
    for u in order:
        used = {colours[v] for v in graph.neighbors(u) if v in colours}
        c = 0
        while c in used:
            c += 1
        colours[u] = c
    return colours


def square_coloring(graph: Graph) -> Dict[int, int]:
    """Proper colouring of the square ``G²``.

    Any two nodes at distance ≤ 2 in ``G`` receive different colours, so if
    nodes transmit only in rounds congruent to their colour, no collision can
    occur at any listener.  Uses at most ``Δ² + 1`` colours.
    """
    return greedy_coloring(graph_square(graph))


def is_proper_coloring(graph: Graph, colours: Dict[int, int]) -> bool:
    """Check that no edge joins two equal-coloured nodes and every node is coloured."""
    if set(colours) != set(range(graph.n)):
        return False
    return all(colours[u] != colours[v] for u, v in graph.edges())


def color_classes(colours: Dict[int, int]) -> List[List[int]]:
    """Group nodes by colour, returned as a list indexed by colour."""
    if not colours:
        return []
    k = max(colours.values()) + 1
    classes: List[List[int]] = [[] for _ in range(k)]
    for v, c in colours.items():
        classes[c].append(v)
    return [sorted(cls) for cls in classes]
