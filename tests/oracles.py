"""Reference implementations kept only as test oracles.

These are the straightforward set-based versions of the Section 2.1
construction, of the dense random-graph generators, of the graph itself and
of its traversals: every frontier is recomputed as ``UNINF_i ∩ Γ(INF_i)``,
every candidate scans every target, the random generators materialize the
full ``n × n`` matrix, a graph is built with a Python set insert per edge and
a CSR slice write per node, BFS walks NumPy scalars off the CSR arrays, and
the graph power runs a full BFS per node and checks all n² pairs.
They are slow (quadratic, or a Python object operation per edge) but
obviously faithful to the definitions, so the optimized library code must
reproduce them bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.sequences import SequenceConstruction, Stage
from repro.graphs.generators import _connect_components, _require_positive
from repro.graphs.graph import Graph, GraphError
from repro.graphs.random import SeedLike, make_rng


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


def geometric_pairs(pts: np.ndarray, radius: float) -> List[Tuple[int, int]]:
    """Row-major ``i < j`` pairs within ``radius``, from the full n×n matrix."""
    n = len(pts)
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    mask = dist2 <= radius * radius
    iu, ju = np.triu_indices(n, k=1)
    sel = mask[iu, ju]
    return list(zip(iu[sel].tolist(), ju[sel].tolist()))


def random_geometric_graph(
    n: int, radius: float, seed: SeedLike = None, *, connect: bool = True
) -> Graph:
    _require_positive(n)
    rng = make_rng(seed)
    g = Graph.from_edges(n, geometric_pairs(rng.random((n, 2)), radius))
    if connect and not is_connected(g):
        g = _connect_components(g, rng)
    return g


# --------------------------------------------------------------------------- #
# the set-based graph and the NumPy-scalar traversals
# --------------------------------------------------------------------------- #
def _normalise_edge(u: int, v: int) -> Tuple[int, int]:
    if u == v:
        raise GraphError(f"self-loop {u!r} is not allowed in a simple graph")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SetGraph:
    """The graph as first built: eager edge set, per-edge set inserts."""

    n: int
    edge_set: FrozenSet[Tuple[int, int]]
    names: Optional[Tuple[str, ...]] = None
    _adj: Tuple[FrozenSet[int], ...] = field(init=False, repr=False, compare=False)
    _csr_indptr: np.ndarray = field(init=False, repr=False, compare=False)
    _csr_indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"node count must be non-negative, got {self.n}")
        if self.names is not None and len(self.names) != self.n:
            raise GraphError(
                f"names has {len(self.names)} entries but the graph has {self.n} nodes"
            )
        adj: List[set] = [set() for _ in range(self.n)]
        for u, v in self.edge_set:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) references a node outside 0..{self.n - 1}")
            if u == v:
                raise GraphError(f"self-loop at node {u} is not allowed")
            adj[u].add(v)
            adj[v].add(u)
        frozen = tuple(frozenset(s) for s in adj)
        object.__setattr__(self, "_adj", frozen)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        for u in range(self.n):
            indptr[u + 1] = indptr[u] + len(frozen[u])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for u in range(self.n):
            indices[indptr[u] : indptr[u + 1]] = sorted(frozen[u])
        object.__setattr__(self, "_csr_indptr", indptr)
        object.__setattr__(self, "_csr_indices", indices)

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[Tuple[int, int]], names: Optional[Sequence[str]] = None
    ) -> "SetGraph":
        edge_set = frozenset(_normalise_edge(u, v) for u, v in edges)
        return cls(n=n, edge_set=edge_set, names=tuple(names) if names is not None else None)

    @property
    def num_edges(self) -> int:
        return len(self.edge_set)

    def edges(self):
        return iter(sorted(self.edge_set))

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and _normalise_edge(u, v) in self.edge_set

    def neighbors(self, u: int) -> FrozenSet[int]:
        return self._adj[u]

    def degrees(self) -> np.ndarray:
        return np.diff(self._csr_indptr)

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._csr_indptr, self._csr_indices

    def __hash__(self) -> int:
        return hash((self.n, self.edge_set))

    def __eq__(self, other: object) -> bool:
        return self.n == other.n and self.edge_set == other.edge_set


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    if source not in graph:
        raise GraphError(f"source {source} is not a node of {graph!r}")
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    queue: deque = deque([source])
    indptr, indices = graph.csr()
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u] : indptr[u + 1]]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


def bfs_layers(graph: Graph, source: int) -> List[List[int]]:
    dist = bfs_distances(graph, source)
    layers: List[List[int]] = [[] for _ in range(int(dist.max(initial=0)) + 1)]
    for v in range(graph.n):
        if dist[v] >= 0:
            layers[int(dist[v])].append(v)
    return layers


def bfs_tree(graph: Graph, source: int) -> Dict[int, Optional[int]]:
    dist = bfs_distances(graph, source)
    parent: Dict[int, Optional[int]] = {source: None}
    for v in range(graph.n):
        d = int(dist[v])
        if d > 0:
            parent[v] = min(int(u) for u in graph.neighbors_array(v) if dist[u] == d - 1)
    return parent


def shortest_path(graph: Graph, source: int, target: int) -> Optional[List[int]]:
    if target not in graph:
        raise GraphError(f"target {target} is not a node of {graph!r}")
    if bfs_distances(graph, source)[target] < 0:
        return None
    parent = bfs_tree(graph, source)
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return path[::-1]


def connected_components(graph: Graph) -> List[List[int]]:
    seen = np.zeros(graph.n, dtype=bool)
    components: List[List[int]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        comp: List[int] = []
        queue: deque = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in graph.neighbors_array(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(int(v))
        components.append(sorted(comp))
    return components


def is_connected(graph: Graph) -> bool:
    return graph.n == 0 or int((bfs_distances(graph, 0) >= 0).sum()) == graph.n


def graph_power(graph: Graph, k: int) -> Graph:
    """``G^k`` from a full BFS per node and a check of all n² pairs."""
    if k < 1:
        raise GraphError(f"graph power requires k >= 1, got {k}")
    edges: List[Tuple[int, int]] = []
    for u in range(graph.n):
        dist = bfs_distances(graph, u)
        for v in range(u + 1, graph.n):
            if 0 < dist[v] <= k:
                edges.append((u, v))
    return Graph.from_edges(graph.n, edges)
