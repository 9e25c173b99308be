"""The five set sequences of Section 2.1.

Given a connected graph ``G`` and a source ``s``, the labeling scheme is built
from five sequences of node sets, indexed by stage ``i ≥ 1``:

* ``INF_i``      — nodes informed before round ``2i − 1``;
* ``UNINF_i``    — nodes not yet informed before round ``2i − 1``;
* ``FRONTIER_i`` — uninformed nodes adjacent to at least one informed node;
* ``DOM_i``      — a *minimal* subset of ``DOM_{i-1} ∪ NEW_{i-1}`` dominating
  ``FRONTIER_i`` (these are the nodes that transmit µ in round ``2i − 1``);
* ``NEW_i``      — frontier nodes adjacent to **exactly one** node of
  ``DOM_i`` (these are the nodes newly informed in round ``2i − 1``).

The construction stops at the smallest ``ℓ`` with ``INF_ℓ = V(G)``.  This
module computes the sequences, exposes them as immutable :class:`Stage`
records, and implements every structural fact the paper proves about them
(Facts 2.1–2.2, Lemmas 2.3–2.6, Corollary 2.7) as checks that raise
:class:`~repro.graphs.graph.GraphError`, used by the test-suite.

Cost of stage ``i``: the frontier is updated incrementally,
``FRONTIER_i = (FRONTIER_{i-1} − NEW_{i-1}) ∪ (Γ(NEW_{i-1}) ∩ UNINF_i)``, which
costs ``O(Σ_{v ∈ NEW_{i-1}} deg(v) + |FRONTIER_{i-1}|)``; choosing ``DOM_i`` and
``NEW_i`` costs ``O(Σ_{t ∈ FRONTIER_i} deg(t))`` (see
:mod:`repro.core.domination`).  Over the whole construction the
neighbourhood scans touch every edge ``O(1)`` times per stage its endpoint
spends on the frontier.  Each stage also stores ``INF_i`` and ``UNINF_i`` as
their own frozensets, an ``O(n)`` C-level copy per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..graphs.graph import Graph, GraphError
from ..graphs.traversal import is_connected
from .domination import minimal_dominating_subset

__all__ = ["Stage", "SequenceConstruction", "build_sequences"]


@dataclass(frozen=True)
class Stage:
    """The five sets of one stage ``i`` of the construction."""

    index: int
    informed: FrozenSet[int]
    uninformed: FrozenSet[int]
    frontier: FrozenSet[int]
    dom: FrozenSet[int]
    new: FrozenSet[int]

    def __repr__(self) -> str:
        return (
            f"Stage(i={self.index}, |INF|={len(self.informed)}, "
            f"|FRONTIER|={len(self.frontier)}, |DOM|={len(self.dom)}, |NEW|={len(self.new)})"
        )


@dataclass(frozen=True)
class SequenceConstruction:
    """The full sequence construction for one (graph, source) pair.

    Attributes
    ----------
    graph, source:
        The inputs.
    stages:
        ``stages[i - 1]`` holds stage ``i``; the last stage is stage ``ℓ``
        (the first with ``INF_i = V``), for which ``FRONTIER = DOM = NEW = ∅``.
    strategy:
        The domination strategy used to pick each ``DOM_i``.
    """

    graph: Graph
    source: int
    stages: Tuple[Stage, ...]
    strategy: str

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def ell(self) -> int:
        """The paper's ℓ: the smallest stage index with ``INF_i = V(G)``."""
        return len(self.stages)

    def stage(self, i: int) -> Stage:
        """Stage ``i`` (1-indexed, ``1 ≤ i ≤ ℓ``)."""
        if not (1 <= i <= self.ell):
            raise IndexError(f"stage {i} not in 1..{self.ell}")
        return self.stages[i - 1]

    def dom(self, i: int) -> FrozenSet[int]:
        """``DOM_i`` (empty for ``i > ℓ``)."""
        return self.stages[i - 1].dom if i <= self.ell else frozenset()

    def new(self, i: int) -> FrozenSet[int]:
        """``NEW_i`` (empty for ``i > ℓ``)."""
        return self.stages[i - 1].new if i <= self.ell else frozenset()

    def frontier(self, i: int) -> FrozenSet[int]:
        """``FRONTIER_i`` (empty for ``i > ℓ``)."""
        return self.stages[i - 1].frontier if i <= self.ell else frozenset()

    def informed(self, i: int) -> FrozenSet[int]:
        """``INF_i`` (the whole node set for ``i > ℓ``)."""
        if i <= self.ell:
            return self.stages[i - 1].informed
        return frozenset(range(self.graph.n))

    # ------------------------------------------------------------------ #
    # derived maps used by the labeling scheme and the verifier
    # ------------------------------------------------------------------ #
    def dom_membership(self) -> Dict[int, List[int]]:
        """Map node → sorted list of stage indices ``i`` with ``v ∈ DOM_i``."""
        member: Dict[int, List[int]] = {}
        for stage in self.stages:
            for v in stage.dom:
                member.setdefault(v, []).append(stage.index)
        return member

    def new_stage_of(self) -> Dict[int, int]:
        """Map node → the unique stage ``i`` with ``v ∈ NEW_i`` (Corollary 2.7)."""
        out: Dict[int, int] = {}
        for stage in self.stages:
            for v in stage.new:
                out[v] = stage.index
        return out

    def informed_round(self, v: int) -> int:
        """The round in which ``v`` first receives µ under Algorithm B.

        The source is informed "in round 0" by convention; every other node
        ``v ∈ NEW_i`` is informed in round ``2i − 1`` (Lemma 2.8 1(b)).
        """
        if v == self.source:
            return 0
        stage = self.new_stage_of().get(v)
        if stage is None:
            raise GraphError(f"node {v} never appears in a NEW set — graph disconnected?")
        return 2 * stage - 1

    def last_informed_nodes(self) -> FrozenSet[int]:
        """``NEW_{ℓ-1}`` — the nodes informed last (used by λ_ack to pick ``z``)."""
        if self.ell < 2:
            return frozenset()
        return self.stage(self.ell - 1).new

    def broadcast_rounds(self) -> int:
        """Round in which the last node is informed: ``2ℓ − 3`` (0 for a single node)."""
        if self.ell < 2:
            return 0
        return 2 * self.ell - 3

    # ------------------------------------------------------------------ #
    # structural facts from the paper, as checkable predicates
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Check every structural fact of Section 2.1; raise GraphError otherwise.

        Covers Fact 2.1, Fact 2.2, Lemma 2.3, Lemma 2.4, Lemma 2.6 and
        Corollary 2.7 plus the defining properties of each stage.  The checks
        are explicit raises, not ``assert`` statements, so they also run
        under ``python -O``.
        """

        def require(ok: bool, message: str) -> None:
            if not ok:
                raise GraphError(message)

        g = self.graph
        all_nodes = frozenset(range(g.n))
        ell = self.ell
        require(ell <= max(g.n, 1), f"Lemma 2.6 violated: ell={ell} > n={g.n}")
        seen_new: set = set()
        for idx, stage in enumerate(self.stages, start=1):
            require(stage.index == idx, f"stage {idx} carries index {stage.index}")
            # Fact 2.1: NEW_i ⊆ FRONTIER_i ⊆ UNINF_i
            require(stage.new <= stage.frontier <= stage.uninformed,
                    f"Fact 2.1 violated at stage {idx}")
            # Fact 2.2: INF_i = {source} ∪ NEW_1 ∪ ... ∪ NEW_{i-1}, UNINF_i is its complement
            require(stage.informed == frozenset({self.source}) | frozenset(seen_new),
                    f"Fact 2.2 violated at stage {idx}")
            require(stage.uninformed == all_nodes - stage.informed,
                    f"UNINF_{idx} is not the complement of INF_{idx}")
            # FRONTIER_i = UNINF_i ∩ Γ(INF_i)
            require(stage.frontier == stage.uninformed & g.neighborhood(stage.informed),
                    f"frontier definition violated at stage {idx}")
            # DOM_i dominates FRONTIER_i and is minimal
            for t in stage.frontier:
                require(bool(g.neighbors(t) & stage.dom),
                        f"DOM_{idx} fails to dominate {t}")
            for v in stage.dom:
                rest = stage.dom - {v}
                require(not all(g.neighbors(t) & rest for t in stage.frontier),
                        f"DOM_{idx} is not minimal: {v} is redundant")
            # NEW_i = frontier nodes with exactly one DOM_i neighbour
            expected_new = frozenset(
                t for t in stage.frontier if len(g.neighbors(t) & stage.dom) == 1
            )
            require(stage.new == expected_new, f"NEW_{idx} mismatch")
            # Lemma 2.3: NEW sets are pairwise disjoint
            require(not (stage.new & seen_new), f"Lemma 2.3 violated at stage {idx}")
            seen_new |= stage.new
            # Lemma 2.4: progress while not finished
            if stage.informed != all_nodes:
                require(bool(stage.new), f"Lemma 2.4 violated at stage {idx}: no progress")
        final = self.stages[-1]
        require(final.informed == all_nodes, "construction stopped before INF = V")
        require(not final.new and not final.dom and not final.frontier,
                "final stage must have empty FRONTIER/DOM/NEW sets")
        # Corollary 2.7: NEW_1..NEW_{ℓ-1} partition V \ {source}
        require(frozenset(seen_new) == all_nodes - {self.source},
                "Corollary 2.7 violated: NEW sets do not partition V \\ {source}")


def build_sequences(
    graph: Graph, source: int, strategy: str = "prune"
) -> SequenceConstruction:
    """Run the Section 2.1 construction on ``(graph, source)``.

    Parameters
    ----------
    graph:
        A connected graph.
    source:
        The distinguished source node ``s_G``.
    strategy:
        Domination strategy used to choose each ``DOM_i`` (see
        :mod:`repro.core.domination`).

    Returns
    -------
    SequenceConstruction
        The stages ``1..ℓ`` where ``ℓ`` is the first stage with every node
        informed.  The final stage has empty frontier/DOM/NEW sets.
    """
    if source not in graph:
        raise GraphError(f"source {source} is not a node of {graph!r}")
    if not is_connected(graph):
        raise GraphError("the paper's model requires a connected graph")

    all_nodes = frozenset(range(graph.n))
    stages: List[Stage] = []

    # Stage 1 initialisation (paper: INF1={s}, UNINF1=V−{s}, FRONTIER1=NEW1=Γ(s), DOM1={s}).
    informed = frozenset({source})
    uninformed = all_nodes - informed
    if informed == all_nodes:
        # Single-node graph: stage 1 already has everyone informed.
        stages.append(
            Stage(1, informed, frozenset(), frozenset(), frozenset(), frozenset())
        )
        return SequenceConstruction(graph, source, tuple(stages), strategy)

    frontier = graph.neighborhood({source}) & uninformed
    dom = frozenset({source})
    new = frontier  # every neighbour of the unique transmitter hears it
    stages.append(Stage(1, informed, uninformed, frontier, dom, new))

    prev_dom, prev_new, prev_frontier = dom, new, frontier
    prev_informed, prev_uninformed = informed, uninformed
    i = 1
    while True:
        i += 1
        informed = prev_informed | prev_new
        uninformed = prev_uninformed - prev_new
        if informed == all_nodes:
            stages.append(
                Stage(i, informed, uninformed, frozenset(), frozenset(), frozenset())
            )
            break
        # Γ(INF_i) = Γ(INF_{i-1}) ∪ Γ(NEW_{i-1}), so only NEW_{i-1}'s
        # neighbourhood is new: FRONTIER_i = (FRONTIER_{i-1} − NEW_{i-1}) ∪
        # (Γ(NEW_{i-1}) ∩ UNINF_i).
        frontier = (prev_frontier - prev_new) | (graph.neighborhood(prev_new) & uninformed)
        candidates = prev_dom | prev_new
        dom = minimal_dominating_subset(graph, candidates, frontier, strategy=strategy)
        new = frozenset(
            t for t in frontier if len(graph.neighbors(t) & dom) == 1
        )
        stages.append(Stage(i, informed, uninformed, frontier, dom, new))
        if i > graph.n + 1:
            raise GraphError(
                "sequence construction exceeded n+1 stages — this contradicts "
                "Lemma 2.6 and indicates a bug"
            )
        prev_dom, prev_new, prev_frontier = dom, new, frontier
        prev_informed, prev_uninformed = informed, uninformed

    return SequenceConstruction(graph, source, tuple(stages), strategy)
