"""Calendar-driven vectorized kernels against the reference engine.

The vectorized kernels visit only the rounds in which some node can act and
jump over the rest (see :mod:`repro.backends.vectorized`).  These cases aim
at the jumps: long-diameter families, where B_arb's timers and the slotted
baselines leave long quiet stretches; budgets that end inside a quiet
stretch or one round after it; disconnected graphs, where the protocols go
quiet for good and run to their budget; and slotted baselines whose
source's slot comes late.  Every case compares the ``none``, ``summary`` and
``full`` traces, the derived outcome and the stop round and reason.
"""

from __future__ import annotations

from typing import List, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import GridConfig, run_grid
from repro.api.schemes import get_scheme
from repro.backends import BatchedVectorizedBackend, ReferenceBackend, VectorizedBackend
from repro.backends import vectorized
from repro.backends.base import SimulationTask
from repro.baselines.round_robin import RoundRobinNode
from repro.core.labeling import lambda_ack_scheme, lambda_scheme
from repro.core.protocols.acknowledged import make_acknowledged_node
from repro.core.protocols.arbitrary import make_arbitrary_node
from repro.core.protocols.broadcast import make_broadcast_node
from repro.graphs import Graph, GraphError, generate_family, source_radius
from repro.graphs import properties as properties_module
from repro.radio.trace import ExecutionTrace

REFERENCE = ReferenceBackend()
VECTORIZED = VectorizedBackend(strict=True)
BATCHED = BatchedVectorizedBackend(strict=True)

SCHEMES = ["lambda", "lambda_ack", "lambda_arb", "round_robin", "coloring_tdma",
           "centralized"]
FAMILIES = ["path", "cycle", "caterpillar", "random_tree"]
SIZES = [26, 33, 64]
LEVELS = ["none", "summary", "full"]


def _build(scheme_name: str, graph: Graph, source: int, level: str,
           max_rounds=None):
    scheme = get_scheme(scheme_name)
    info = scheme.build_labels(graph, source, **scheme.grid_options(graph, source))
    budget = scheme.default_budget(graph, info) if max_rounds is None else max_rounds
    task = scheme.build_task(
        graph, info, source, payload="MSG", max_rounds=budget,
        trace_level=level, fault_model=None, clock_model=None,
    )
    return scheme, info, task


def _run_args(scheme_name, graph, source, level, max_rounds=None):
    scheme, info, task = _build(scheme_name, graph, source, level, max_rounds)
    return scheme, graph, info, task


def _expected_trace(ref_trace: ExecutionTrace, level: str) -> ExecutionTrace:
    """The reference trace at ``level`` (the object engine records ``none``
    as ``summary``; a ``none`` trace keeps the totals, no per-node maps)."""
    if level != "none":
        return ref_trace
    doc = ref_trace.to_aggregates()
    doc.update(level="none", informed_first={}, ack_first={}, ack_last={})
    return ExecutionTrace.from_aggregates_doc(doc)


def _outcome_key(scheme, graph, task, result, info):
    outcome = scheme.derive_outcome(graph, task, result, info)
    return (
        outcome.completion_round,
        outcome.acknowledgement_round,
        outcome.common_completion_round,
        result.simulation.stop_round,
        result.simulation.stop_reason,
    )


def _assert_same_run(scheme, graph, info, task, backend=VECTORIZED):
    ref = REFERENCE.run_task(task)
    vec = backend.run_task(task)
    assert vec.simulation.nodes == []  # the array kernel really ran
    assert vec.trace == _expected_trace(ref.trace, task.trace_level)
    if task.trace_level == "full":
        assert vec.trace.to_json() == ref.trace.to_json()
    assert _outcome_key(scheme, graph, task, vec, info) == _outcome_key(
        scheme, graph, task, ref, info
    )
    return ref


def _quiet_stretches(trace: ExecutionTrace) -> List[Tuple[int, int]]:
    """Maximal runs ``(first, last)`` of rounds with no transmitter."""
    runs: List[Tuple[int, int]] = []
    for record in trace.rounds:
        r = record.round_number
        if not record.is_silent:
            continue
        if runs and runs[-1][1] == r - 1:
            runs[-1] = (runs[-1][0], r)
        else:
            runs.append((r, r))
    return runs


# --------------------------------------------------------------------------- #
# long-diameter families, every kernel, every trace level
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_long_diameter_families(scheme_name, family, size, level):
    graph = generate_family(family, size, size)
    source = (7 * size) % graph.n
    _assert_same_run(*_run_args(scheme_name, graph, source, level))



# --------------------------------------------------------------------------- #
# budgets ending inside a quiet stretch, and one round after it
# --------------------------------------------------------------------------- #
QUIET_CASES = [
    ("lambda", "path", 33),
    ("lambda_ack", "caterpillar", 33),
    ("lambda_arb", "path", 26),
    ("lambda_arb", "random_tree", 33),
    ("round_robin", "cycle", 26),
    ("coloring_tdma", "path", 33),
]


@pytest.mark.parametrize("scheme_name,family,size", QUIET_CASES,
                         ids=[f"{s}-{f}-{n}" for s, f, n in QUIET_CASES])
def test_budget_ends_in_and_just_after_a_quiet_stretch(scheme_name, family, size):
    graph = generate_family(family, size, 3)
    source = graph.n - 1
    _, _, full_task = _build(scheme_name, graph, source, "full")
    ref = REFERENCE.run_task(full_task)
    stretches = [
        (a, b) for a, b in _quiet_stretches(ref.trace)
        if b < ref.simulation.stop_round
    ]
    assert stretches, "the case must contain a quiet stretch before its stop"
    first, last = max(stretches, key=lambda run: run[1] - run[0])
    budgets = sorted({first, (first + last) // 2, last, last + 1})
    for budget in budgets:
        for level in LEVELS:
            _assert_same_run(*_run_args(scheme_name, graph, source, level, budget))


def test_lambda_arb_has_a_quiet_stretch_longer_than_two_rounds():
    # The timer jump must be exercised by the cases above, not only
    # one-round gaps between phases.
    graph = generate_family("path", 26, 3)
    _, _, task = _build("lambda_arb", graph, graph.n - 1, "full")
    stretches = _quiet_stretches(REFERENCE.run_task(task).trace)
    assert max(b - a + 1 for a, b in stretches) > 2


# --------------------------------------------------------------------------- #
# disconnected graphs: the protocols go quiet for good and run to the budget
# --------------------------------------------------------------------------- #
def _disconnected_task(protocol: str, level: str, max_rounds: int) -> SimulationTask:
    component = generate_family("caterpillar", 12, 1)
    graph = component.union_disjoint(generate_family("path", 5, 0))
    if protocol == "broadcast":
        labeling, factory = lambda_scheme(component, 3), make_broadcast_node
    else:
        labeling, factory = lambda_ack_scheme(component, 3), make_acknowledged_node
    labels = dict(labeling.labels)
    labels.update({v: "0" * len(labels[0]) for v in range(component.n, graph.n)})
    return SimulationTask(
        protocol=protocol, graph=graph, labels=labels, node_factory=factory,
        source=3, payload="MSG", max_rounds=max_rounds, stop_rule="all_informed",
        trace_level=level,
    )


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("protocol", ["broadcast", "acknowledged"])
@pytest.mark.parametrize("max_rounds", [0, 1, 2, 7, 60])
def test_disconnected_graph_runs_to_its_budget(protocol, level, max_rounds):
    task = _disconnected_task(protocol, level, max_rounds)
    ref = REFERENCE.run_task(task)
    vec = VECTORIZED.run_task(task)
    assert vec.trace == _expected_trace(ref.trace, level)
    if level == "full":
        assert vec.trace.to_json() == ref.trace.to_json()
    assert vec.simulation.stop_round == ref.simulation.stop_round == max_rounds
    assert vec.simulation.stop_reason == ref.simulation.stop_reason == "budget"
    assert vec.derived["completion_round"] is None


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("scheme_name", ["round_robin", "coloring_tdma"])
def test_slotted_baselines_on_a_disconnected_graph(scheme_name, level):
    graph = generate_family("path", 9, 0).union_disjoint(generate_family("cycle", 5, 0))
    _assert_same_run(*_run_args(scheme_name, graph, 4, level, max_rounds=70))


# --------------------------------------------------------------------------- #
# a single node: the stop rule holds before anyone transmits
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_single_node(scheme_name, level):
    _assert_same_run(*_run_args(scheme_name, Graph.empty(1), 0, level))


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("stop_rule", ["all_informed", None])
@pytest.mark.parametrize("max_rounds", [0, 1, 2, 5])
def test_single_node_whose_slot_comes_late(max_rounds, stop_rule, level):
    # Slot 2 of period 3: the first transmission is in round 3, but the
    # reference engine checks the stop rule (and the completion round) after
    # round 1.
    def factory(node_id, label, is_source, source_payload):
        return RoundRobinNode(node_id, label, is_source=is_source,
                              source_payload=source_payload)

    task = SimulationTask(
        protocol="round_robin", graph=Graph.empty(1), labels={0: "1010"},
        node_factory=factory, source=0, payload="MSG", max_rounds=max_rounds,
        stop_rule=stop_rule, trace_level=level,
    )
    ref = REFERENCE.run_task(task)
    vec = VECTORIZED.run_task(task)
    assert vec.trace == _expected_trace(ref.trace, level)
    if level == "full":
        assert vec.trace.to_json() == ref.trace.to_json()
    assert vec.simulation.stop_round == ref.simulation.stop_round
    assert vec.simulation.stop_reason == ref.simulation.stop_reason
    assert vec.derived["completion_round"] == (1 if max_rounds else None)


# --------------------------------------------------------------------------- #
# slotted baselines whose source's slot comes late
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("family", ["path", "random_tree", "grid"])
@pytest.mark.parametrize("scheme_name", ["round_robin", "coloring_tdma"])
def test_slotted_source_with_a_late_slot(scheme_name, family, level):
    graph = generate_family(family, 33, 2)
    scheme = get_scheme(scheme_name)
    slots, periods = vectorized._parse_slot_labels(
        scheme.build_labels(graph, 0).labels, graph.n
    )
    residues = (slots % periods).tolist()
    source = residues.index(max(residues))
    assert max(residues) > 0
    ref = _assert_same_run(*_run_args(scheme_name, graph, source, level))
    if level == "full":  # nobody transmits before the source's slot
        assert all(rec.is_silent for rec in ref.trace.rounds[: max(residues) - 1])


def test_slot_calendar_groups_mixed_periods():
    # Hand-made labels with different periods per node: refiling after a
    # transmission splits one round's transmitters over several rounds.
    graph = generate_family("star", 7, 0)
    labels = {0: "000011"}
    for v, (slot, period) in enumerate([(1, 2), (2, 3), (0, 4), (3, 4), (1, 3), (5, 6)], 1):
        labels[v] = format(slot, "03b") + format(period - 1, "03b")
    def factory(node_id, label, is_source, source_payload):
        return RoundRobinNode(node_id, label, is_source=is_source,
                              source_payload=source_payload)

    for level in LEVELS:
        task = SimulationTask(
            protocol="round_robin", graph=graph, labels=labels, node_factory=factory,
            source=0, payload="MSG", max_rounds=40, stop_rule=None,
            trace_level=level,
        )
        ref = REFERENCE.run_task(task)
        vec = VECTORIZED.run_task(task)
        assert vec.trace == _expected_trace(ref.trace, level)
        assert vec.simulation.stop_round == ref.simulation.stop_round == 40


# --------------------------------------------------------------------------- #
# arbitrary labels: every rule, every priority clash, every quiet stretch
# --------------------------------------------------------------------------- #
def _knows_completion(sim) -> bool:
    return all(node.knows_completion for node in sim.nodes)


@st.composite
def random_label_tasks(draw) -> SimulationTask:
    """B / B_ack / B_arb on small graphs with arbitrary label bits.

    Arbitrary labels break the paper's guarantees but not the engines'
    agreement, and they reach rule overlaps the paper's labelings avoid
    (a node due for two rules in one round, a stay heard right after the
    node itself sent stay or an ack).
    """
    protocol = draw(st.sampled_from(["broadcast", "acknowledged", "arbitrary"]))
    family = draw(st.sampled_from(["path", "cycle", "caterpillar", "random_tree",
                                   "gnp_sparse", "grid"]))
    graph = generate_family(family, draw(st.integers(2, 14)), draw(st.integers(0, 9)))
    n = graph.n
    width = 2 if protocol == "broadcast" else 3
    bits = st.integers(0, 2 ** width - 1).map(lambda x: format(x, f"0{width}b"))
    labels = {v: draw(bits) for v in range(n)}
    source = draw(st.integers(0, n - 1))
    extras, stop_condition, rule, factory = {}, None, "all_informed", make_broadcast_node
    if protocol == "acknowledged":
        rule, factory = draw(st.sampled_from(["acknowledged", "all_informed"])), make_acknowledged_node
    elif protocol == "arbitrary":
        coordinator = draw(st.integers(0, n - 1))
        labels = {v: ("111" if v == coordinator else lab.replace("111", "110"))
                  for v, lab in labels.items()}
        extras = {"coordinator": coordinator}
        rule, stop_condition, factory = "arb_complete", _knows_completion, make_arbitrary_node
    return SimulationTask(
        protocol=protocol, graph=graph, labels=labels, node_factory=factory,
        source=source, payload="MSG", max_rounds=draw(st.integers(0, 16 * n)),
        stop_rule=draw(st.sampled_from([rule, None])) if protocol != "arbitrary" else rule,
        stop_condition=stop_condition, trace_level=draw(st.sampled_from(LEVELS)),
        extras=extras,
    )


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(task=random_label_tasks())
def test_arbitrary_labels_match_the_reference(task):
    ref = REFERENCE.run_task(task)
    expected = _expected_trace(ref.trace, task.trace_level)
    for out in (VECTORIZED.run_task(task), BATCHED.run_batch([task])[0]):
        assert out.trace == expected
        if task.trace_level == "full":
            assert out.trace.to_json() == ref.trace.to_json()
        assert out.simulation.stop_round == ref.simulation.stop_round
        assert out.simulation.stop_reason == ref.simulation.stop_reason


# --------------------------------------------------------------------------- #
# aggregate recording
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("level", ["none", "summary"])
@pytest.mark.parametrize("scheme_name", ["lambda", "lambda_ack", "lambda_arb"])
def test_batched_aggregates_split_by_instance(scheme_name, level):
    # The batched engine records a whole batch into one _Aggregates; each
    # instance's totals must equal the single-instance recording.
    tasks = [
        _build(scheme_name, generate_family(family, size, 5), 3, level)[2]
        for family, size in [("random_tree", 40), ("path", 17), ("cycle", 23)]
    ]
    expected = [VECTORIZED.run_task(task).trace for task in tasks]
    batch = BatchedVectorizedBackend().run_batch(tasks + tasks[:1])
    assert [out.trace for out in batch] == expected + expected[:1]


# --------------------------------------------------------------------------- #
# one source-eccentricity BFS per grid instance
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["vectorized", "batched"])
def test_grid_computes_the_source_radius_once_per_instance(backend):
    config = GridConfig(families=["path", "grid"], sizes=[16], seeds_per_size=2,
                        schemes=["lambda", "lambda_ack", "round_robin"])
    calls: List[Tuple[int, int]] = []
    real = properties_module.bfs_distances

    def counting(graph, source):
        calls.append((graph.n, source))
        return real(graph, source)

    with mock.patch.object(properties_module, "bfs_distances", counting):
        rows = list(run_grid(config, backend=backend))
    assert len(rows) == 12
    assert len(calls) == 4  # 2 families × 2 seeds
    assert rows == list(run_grid(config, backend="reference"))


def test_source_radius_is_memoised_per_graph_and_source():
    graph = generate_family("path", 9, 0)
    assert [source_radius(graph, s) for s in (0, 4, 0, 4)] == [8, 4, 8, 4]
    assert graph._source_radii == {0: 8, 4: 4}
    with pytest.raises(GraphError):
        source_radius(Graph.empty(2), 0)
    assert Graph.empty(2)._source_radii == {}
