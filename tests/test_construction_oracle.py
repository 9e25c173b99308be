"""The optimized Section 2.1 construction and generators against their oracles.

``tests/oracles.py`` keeps the straightforward set-based construction and the
dense ``n × n`` random generators.  The library versions (incremental
frontier, inverted coverage maps, row-blocked generators, one construction
shared by λ and λ_ack per grid instance) must reproduce them bit for bit.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.api import GridConfig, run_grid
from repro.core import labeling
from repro.core.domination import greedy_minimal_dominating_subset, prune_to_minimal
from repro.core.labeling import lambda_ack_scheme, lambda_arb_scheme, lambda_scheme
from repro.core.sequences import build_sequences
from repro.graphs import GraphError, generators
from repro.graphs.generators import family_names, generate_family

STRATEGIES = ("prune", "greedy")


def _gnp_p(n: int) -> float:
    return min(1.0, 2.0 * math.log(max(n, 2)) / max(n, 2))


def _geometric_r(n: int) -> float:
    return min(1.0, 1.6 * math.sqrt(math.log(max(n, 2)) / max(n, 2)))


# --------------------------------------------------------------------------- #
# labels: λ / λ_ack / λ_arb over every family, both strategies
# --------------------------------------------------------------------------- #
class TestLabelsMatchOracle:
    def test_every_family_is_drawn(self):
        assert len(family_names()) == 13

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(family_names()),
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        strategy=st.sampled_from(STRATEGIES),
        pick=st.integers(0, 10_000),
    )
    def test_construction_and_labels_bit_identical(self, family, n, seed,
                                                   strategy, pick):
        graph = generate_family(family, n, seed)
        source = pick % graph.n
        expected = oracles.build_sequences(graph, source, strategy)
        got = build_sequences(graph, source, strategy)
        assert got.stages == expected.stages

        lam = lambda_scheme(graph, source, strategy=strategy)
        assert lam.labels == lambda_scheme(graph, source, construction=expected).labels
        ack = lambda_ack_scheme(graph, source, strategy=strategy)
        oracle_ack = lambda_ack_scheme(graph, source, construction=expected)
        assert ack.labels == oracle_ack.labels
        assert ack.acknowledger == oracle_ack.acknowledger

        coordinator = (source + 1) % graph.n
        arb = lambda_arb_scheme(graph, coordinator=coordinator, strategy=strategy)
        if graph.n > 1:
            root = oracles.build_sequences(graph, coordinator, strategy)
            oracle_arb = dict(lambda_ack_scheme(graph, coordinator,
                                                construction=root).labels)
            oracle_arb[coordinator] = "111"
            assert arb.labels == oracle_arb
        else:
            assert arb.labels == {0: "111"}


# --------------------------------------------------------------------------- #
# the domination strategies on arbitrary candidate / target sets
# --------------------------------------------------------------------------- #
class TestDominationMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_prune_and_greedy_bit_identical(self, n, seed, data):
        graph = generators.random_gnp_graph(n, 0.25, seed)
        nodes = st.lists(st.integers(0, n - 1), max_size=n)
        candidates = data.draw(nodes, label="candidates")
        targets = data.draw(nodes, label="targets")
        for ours, oracle in ((prune_to_minimal, oracles.prune_to_minimal),
                             (greedy_minimal_dominating_subset,
                              oracles.greedy_minimal_dominating_subset)):
            try:
                expected = oracle(graph, candidates, targets)
            except GraphError:
                with pytest.raises(GraphError, match="does not dominate"):
                    ours(graph, candidates, targets)
                continue
            assert ours(graph, candidates, targets) == expected


# --------------------------------------------------------------------------- #
# row-blocked generators
# --------------------------------------------------------------------------- #
class TestBlockedGeneratorsMatchDense:
    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 4096])
    def test_default_blocks(self, n):
        # 2**18 entries per block: n = 512 is exactly one block, 511 fits in
        # one, 513 spills two rows into a second, 4096 takes 64 blocks.
        seed = 7
        assert (generators.random_gnp_graph(n, _gnp_p(n), seed).edge_set
                == oracles.random_gnp_graph(n, _gnp_p(n), seed).edge_set)
        assert (generators.random_geometric_graph(n, _geometric_r(n), seed).edge_set
                == oracles.random_geometric_graph(n, _geometric_r(n), seed).edge_set)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        block=st.integers(1, 200),
        seed=st.integers(0, 10_000),
        connect=st.booleans(),
    )
    def test_small_blocks_straddle_every_boundary(self, n, block, seed, connect):
        p, r = min(1.0, 2.5 / n), 1.2 / math.sqrt(n)
        with mock.patch.object(generators, "_BLOCK_ENTRIES", block):
            gnp = generators.random_gnp_graph(n, p, seed, connect=connect)
            geo = generators.random_geometric_graph(n, r, seed, connect=connect)
        assert gnp.edge_set == oracles.random_gnp_graph(n, p, seed, connect=connect).edge_set
        assert geo.edge_set == oracles.random_geometric_graph(
            n, r, seed, connect=connect).edge_set

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), block=st.integers(1, 200), seed=st.integers(0, 10_000))
    def test_edges_emitted_in_row_major_triu_order(self, n, block, seed):
        mask = np.random.default_rng(seed).random((n, n)) < 0.3
        iu, ju = np.triu_indices(n, k=1)
        sel = mask[iu, ju]
        with mock.patch.object(generators, "_BLOCK_ENTRIES", block):
            lo, hi = generators._concat_pairs([
                generators._upper_pairs(mask[start:stop], start)
                for start, stop in generators._row_blocks(n)
            ])
        edges = list(zip(lo.tolist(), hi.tolist()))
        assert edges == list(zip(iu[sel].tolist(), ju[sel].tolist()))


# --------------------------------------------------------------------------- #
# one construction per (graph, root, strategy) per grid instance
# --------------------------------------------------------------------------- #
class TestSharedConstruction:
    CFG = GridConfig(
        families=["gnp_sparse", "grid"],
        sizes=[16],
        seeds_per_size=1,
        schemes=["lambda", "lambda_ack", "lambda_arb"],
    )

    @pytest.mark.parametrize("backend", [None, "batched"])
    def test_two_builds_per_instance(self, backend):
        # λ and λ_ack share the source-rooted construction; λ_arb builds its
        # own, rooted at the coordinator.
        calls = []
        original = labeling.build_sequences

        def counting(graph, root, strategy="prune"):
            calls.append((graph, root, strategy))
            return original(graph, root, strategy)

        with mock.patch.object(labeling, "build_sequences", counting):
            rows = run_grid(self.CFG, backend=backend)
        assert len(rows) == 6
        assert len(calls) == 2 * len(self.CFG.families)
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_shared_labels_equal_unshared_labels(self, strategy):
        from repro.api.schemes import get_scheme

        graph, source, memo = generate_family("geometric", 40, 3), 5, {}
        for name in ("lambda", "lambda_ack", "lambda_arb"):
            scheme = get_scheme(name)
            options = dict(scheme.grid_options(graph, source), strategy=strategy)
            shared = scheme.build_labels(graph, source, _constructions=memo, **options)
            alone = scheme.build_labels(graph, source, **options)
            assert shared.labels == alone.labels
        assert list(memo) == [(source, strategy)]
