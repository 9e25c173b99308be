"""Reference implementations kept only as test oracles.

These are the straightforward set-based versions of the Section 2.1
construction and of the dense random-graph generators: every frontier is
recomputed as ``UNINF_i ∩ Γ(INF_i)``, every candidate scans every target, and
the random generators materialize the full ``n × n`` matrix.  They are slow
(quadratic) but obviously faithful to the definitions, so the optimized
library code must reproduce them bit for bit.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

import numpy as np

from repro.core.sequences import SequenceConstruction, Stage
from repro.graphs.generators import _connect_components, _require_positive
from repro.graphs.graph import Graph, GraphError
from repro.graphs.random import SeedLike, make_rng
from repro.graphs.traversal import is_connected


def _dominates(graph: Graph, dominators: Iterable[int], targets: Iterable[int]) -> bool:
    dom = set(dominators)
    return all(bool(graph.neighbors(t) & dom) for t in targets)


def prune_to_minimal(
    graph: Graph, candidates: Iterable[int], targets: Iterable[int]
) -> FrozenSet[int]:
    cand = set(candidates)
    targets = list(dict.fromkeys(targets))
    if not _dominates(graph, cand, targets):
        raise GraphError("candidate set does not dominate the target set")
    if not targets:
        return frozenset()
    cover_count: Dict[int, int] = {t: len(graph.neighbors(t) & cand) for t in targets}
    targets_of: Dict[int, List[int]] = {
        c: [t for t in targets if c in graph.neighbors(t)] for c in cand
    }
    keep = set(cand)
    for c in sorted(cand):
        if all(cover_count[t] >= 2 for t in targets_of[c]):
            keep.discard(c)
            for t in targets_of[c]:
                cover_count[t] -= 1
    keep = {c for c in keep if targets_of[c]}
    return frozenset(keep)


def greedy_minimal_dominating_subset(
    graph: Graph, candidates: Iterable[int], targets: Iterable[int]
) -> FrozenSet[int]:
    cand = set(candidates)
    target_list = list(dict.fromkeys(targets))
    if not _dominates(graph, cand, target_list):
        raise GraphError("candidate set does not dominate the target set")
    uncovered: Set[int] = set(target_list)
    chosen: Set[int] = set()
    coverage: Dict[int, Set[int]] = {
        c: set(t for t in target_list if c in graph.neighbors(t)) for c in cand
    }
    while uncovered:
        best = max(sorted(cand - chosen), key=lambda c: len(coverage[c] & uncovered))
        gain = len(coverage[best] & uncovered)
        if gain == 0:
            raise GraphError("greedy selection stalled; candidates do not cover targets")
        chosen.add(best)
        uncovered -= coverage[best]
    return prune_to_minimal(graph, chosen, target_list)


STRATEGIES = {
    "prune": prune_to_minimal,
    "greedy": greedy_minimal_dominating_subset,
}


def build_sequences(graph: Graph, source: int, strategy: str = "prune") -> SequenceConstruction:
    if source not in graph:
        raise GraphError(f"source {source} is not a node of {graph!r}")
    if not is_connected(graph):
        raise GraphError("the paper's model requires a connected graph")
    all_nodes = frozenset(range(graph.n))
    stages: List[Stage] = []
    informed = frozenset({source})
    uninformed = all_nodes - informed
    if informed == all_nodes:
        stages.append(Stage(1, informed, frozenset(), frozenset(), frozenset(), frozenset()))
        return SequenceConstruction(graph, source, tuple(stages), strategy)
    frontier = graph.neighborhood({source}) & uninformed
    dom = frozenset({source})
    new = frontier
    stages.append(Stage(1, informed, uninformed, frontier, dom, new))
    prev_dom, prev_new = dom, new
    prev_informed, prev_uninformed = informed, uninformed
    i = 1
    while True:
        i += 1
        informed = prev_informed | prev_new
        uninformed = prev_uninformed - prev_new
        if informed == all_nodes:
            stages.append(Stage(i, informed, uninformed, frozenset(), frozenset(), frozenset()))
            break
        frontier = uninformed & graph.neighborhood(informed)
        dom = STRATEGIES[strategy](graph, prev_dom | prev_new, frontier)
        new = frozenset(t for t in frontier if len(graph.neighbors(t) & dom) == 1)
        stages.append(Stage(i, informed, uninformed, frontier, dom, new))
        if i > graph.n + 1:
            raise GraphError("sequence construction exceeded n+1 stages")
        prev_dom, prev_new = dom, new
        prev_informed, prev_uninformed = informed, uninformed
    return SequenceConstruction(graph, source, tuple(stages), strategy)


def random_gnp_graph(n: int, p: float, seed: SeedLike = None, *, connect: bool = True) -> Graph:
    _require_positive(n)
    rng = make_rng(seed)
    mask = rng.random((n, n)) < p
    iu, ju = np.triu_indices(n, k=1)
    sel = mask[iu, ju]
    g = Graph.from_edges(n, zip(iu[sel].tolist(), ju[sel].tolist()))
    if connect and not is_connected(g):
        g = _connect_components(g, rng)
    return g


def random_geometric_graph(
    n: int, radius: float, seed: SeedLike = None, *, connect: bool = True
) -> Graph:
    _require_positive(n)
    rng = make_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    mask = dist2 <= radius * radius
    iu, ju = np.triu_indices(n, k=1)
    sel = mask[iu, ju]
    g = Graph.from_edges(n, zip(iu[sel].tolist(), ju[sel].tolist()))
    if connect and not is_connected(g):
        g = _connect_components(g, rng)
    return g
