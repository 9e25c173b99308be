"""Minimal dominating subsets.

The heart of the Section 2.1 construction is step 4: *"Define DOM_i to be a
minimal subset of DOM_{i-1} ∪ NEW_{i-1} that dominates all nodes in
FRONTIER_i."*  "Minimal" is inclusion-minimality: removing any node breaks
domination.  Minimality — not minimum cardinality — is what the correctness
argument needs (Lemma 2.4 uses it to guarantee progress), so any minimal
subset works; which one is chosen only affects the constant factors of the
message count and the tie-breaking of labels.

This module provides two deterministic strategies plus the verification
predicates used by the tests:

* :func:`prune_to_minimal` — start from the full candidate set and repeatedly
  drop redundant nodes (smallest index first).  Matches the paper most
  literally.
* :func:`greedy_minimal_dominating_subset` — greedy set-cover pass (pick the
  candidate covering the most uncovered targets) followed by a pruning pass to
  restore inclusion-minimality.  Produces much smaller dominating sets on
  dense graphs, which the ablation benchmark quantifies.

Cost: both strategies first invert adjacency from the targets' side (each
target ``t`` lists the candidates in ``Γ(t)``), so one call costs
``O(Σ_{t ∈ targets} deg(t))`` set work for the prune plus a sort of the
candidates; the greedy pass adds ``O(log |candidates|)`` per heap update.
Neither ever scans every target for every candidate.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..graphs.graph import Graph, GraphError

__all__ = [
    "dominates",
    "is_minimal_dominating_subset",
    "prune_to_minimal",
    "greedy_minimal_dominating_subset",
    "minimal_dominating_subset",
    "DOMINATION_STRATEGIES",
]


def dominates(graph: Graph, dominators: Iterable[int], targets: Iterable[int]) -> bool:
    """True if every target node has at least one neighbour among ``dominators``."""
    dom = set(dominators)
    return all(bool(graph.neighbors(t) & dom) for t in targets)


def is_minimal_dominating_subset(
    graph: Graph, subset: Iterable[int], candidates: Iterable[int], targets: Iterable[int]
) -> bool:
    """Check the three defining properties of DOM_i.

    ``subset`` must (a) be contained in ``candidates``, (b) dominate
    ``targets``, and (c) be inclusion-minimal: removing any single node breaks
    domination.
    """
    subset = set(subset)
    candidates = set(candidates)
    targets = set(targets)
    if not subset <= candidates:
        return False
    if not dominates(graph, subset, targets):
        return False
    for v in subset:
        if dominates(graph, subset - {v}, targets):
            return False
    return True


def _invert_coverage(
    graph: Graph, candidates: Set[int], targets: Iterable[int]
) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
    """Who covers whom, built from the targets' side in ``O(Σ deg(t))``.

    Returns ``targets_of`` (candidate → the targets it is adjacent to, in
    target order; every candidate has an entry) and ``cover_count`` (target →
    number of adjacent candidates, in first-seen target order, duplicates
    collapsed).  Raises :class:`~repro.graphs.graph.GraphError` if some target
    has no neighbour among the candidates.
    """
    targets_of: Dict[int, List[int]] = {c: [] for c in candidates}
    cover_count: Dict[int, int] = {}
    for t in targets:
        if t in cover_count:
            continue
        hits = graph.neighbors(t) & candidates
        if not hits:
            raise GraphError("candidate set does not dominate the target set")
        cover_count[t] = len(hits)
        for c in hits:
            targets_of[c].append(t)
    return targets_of, cover_count


def prune_to_minimal(
    graph: Graph, candidates: Iterable[int], targets: Iterable[int]
) -> FrozenSet[int]:
    """Shrink ``candidates`` to an inclusion-minimal subset dominating ``targets``.

    Deterministic: candidates are considered for removal in increasing index
    order, and a candidate is removed iff the remaining set still dominates all
    targets.  Raises :class:`~repro.graphs.graph.GraphError` if the full
    candidate set does not dominate the targets in the first place (the
    paper's Lemma 2.5 guarantees it always does in the construction).
    """
    cand = set(candidates)
    targets_of, cover_count = _invert_coverage(graph, cand, targets)
    keep = set()
    for c in sorted(cand):
        # c is redundant iff every target it covers is covered by another kept
        # node (vacuously so when it covers none).
        covered = targets_of[c]
        if all(cover_count[t] >= 2 for t in covered):
            for t in covered:
                cover_count[t] -= 1
        else:
            keep.add(c)
    return frozenset(keep)


def greedy_minimal_dominating_subset(
    graph: Graph, candidates: Iterable[int], targets: Iterable[int]
) -> FrozenSet[int]:
    """Greedy set-cover selection followed by a minimality-restoring prune.

    Ties are broken by smallest node index, so the result is deterministic.
    Gains only shrink as targets get covered, so a heap of possibly stale
    gains suffices: a popped candidate whose recomputed gain still equals its
    key has the largest gain, and the smallest index among equal gains.
    """
    cand = set(candidates)
    target_list = list(dict.fromkeys(targets))
    targets_of, _ = _invert_coverage(graph, cand, target_list)
    uncovered: Set[int] = set(target_list)
    chosen: Set[int] = set()
    heap = [(-len(covered), c) for c, covered in targets_of.items()]
    heapq.heapify(heap)
    while uncovered:
        stale, best = heapq.heappop(heap)
        gain = sum(1 for t in targets_of[best] if t in uncovered)
        if gain != -stale:
            heapq.heappush(heap, (-gain, best))
            continue
        if gain == 0:
            # Unreachable: _invert_coverage checked that the candidates dominate.
            raise GraphError("greedy selection stalled; candidates do not cover targets")
        chosen.add(best)
        uncovered.difference_update(targets_of[best])
    # Greedy choice is usually minimal already, but prune defensively so the
    # result always satisfies the paper's definition.
    return prune_to_minimal(graph, chosen, target_list)


def minimal_dominating_subset(
    graph: Graph,
    candidates: Iterable[int],
    targets: Iterable[int],
    strategy: str = "prune",
) -> FrozenSet[int]:
    """Dispatch to the named domination strategy (``"prune"`` or ``"greedy"``)."""
    try:
        fn = DOMINATION_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown domination strategy {strategy!r}; known: {sorted(DOMINATION_STRATEGIES)}"
        ) from None
    return fn(graph, candidates, targets)


#: Registry of deterministic strategies for choosing DOM_i.
DOMINATION_STRATEGIES = {
    "prune": prune_to_minimal,
    "greedy": greedy_minimal_dominating_subset,
}
