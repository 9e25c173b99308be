"""Batched multi-instance vectorized backend: many tasks, one kernel loop.

The paper's headline claims are statistical — broadcast-time bounds that hold
across whole *families* of radio networks — so reproducing them means
sweeping thousands of small instances.  At n ≤ 64 the per-round NumPy
dispatch overhead of the single-instance :class:`~repro.backends.vectorized.
VectorizedBackend` dominates its runtime; this module removes it by stacking
the CSR adjacency blocks of many :class:`~repro.backends.base.SimulationTask`s
into one **block-diagonal** structure and advancing all instances with a
single set of array kernels per round:

* the stacked graph has no cross-instance edges, so one
  :class:`~repro.backends.vectorized._Channel` resolution over the union
  adjacency resolves every instance's round at once;
* protocol state lives in global arrays indexed by *stacked* node id; the
  decision rules are the same element-wise masks as the single-instance
  kernels, so outcomes stay **bit-for-bit identical** (asserted by
  ``tests/test_batched_equivalence.py`` against both the vectorized and the
  reference engines);
* every instance keeps its own round counter bookkeeping (all instances start
  at round 1 together; an instance that meets its stop rule or exhausts its
  budget is masked out of the transmit vectors and stops recording — its
  trace ends exactly where a solo run's would);
* per-instance trace recording splits the round's sorted global id arrays at
  the block offsets (one ``searchsorted`` per array), so each instance gets
  the same :class:`~repro.radio.trace.ExecutionTrace` a solo run produces.

Determinism needs no per-instance RNG plumbing: the compiled protocols are
deterministic, and the only randomized channel semantics (fault models, which
memoise per-(round, node) coin flips) are exactly the tasks the batched
kernels do not cover — those fall back to per-task execution with their own
model objects, keeping every instance's random stream independent of how the
batch was composed.

Tasks the stacked kernels do not cover (custom node factories, non-default
fault/clock models) are executed per task through the single-instance
vectorized backend (which itself falls back to the reference engine where
needed), so ``--backend batched`` is always safe to pass.  All seven
registered schemes — B_arb included, its per-instance coordinator state
carried as stacked arrays — run inside the stacked kernels under the paper's
default channel models.
Batches must be *homogeneous* in protocol and trace level; mixing either is a
caller error and raises :class:`~repro.backends.base.BackendError`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..baselines.collision_detection import (
    LENGTH_HEADER_BITS,
    SLOT_LENGTH,
    decode_payload_bits,
    encode_payload_bits,
)
from ..radio.engine import SimulationResult
from ..radio.messages import (
    Message,
    ack_message,
    initialize_message,
    ready_message,
    source_message,
    stay_message,
)
from ..radio.trace import TRACE_FULL
from .base import BackendError, BackendResult, SimulationBackend, SimulationTask
from .vectorized import (
    _EMPTY,
    _K_ACK,
    _K_INIT,
    _K_READY,
    _K_SOURCE,
    _K_STAY,
    _NEVER,
    VectorizedBackend,
    _Aggregates,
    _Channel,
    _ack_payload_cost,
    _int_payload_bits,
    _parse_bit_labels,
    _parse_slot_labels,
    _Recorder,
)

__all__ = [
    "BatchedVectorizedBackend",
    "run_broadcast_batch",
    "run_acknowledged_batch",
    "run_arbitrary_batch",
    "run_slotted_batch",
    "run_centralized_batch",
    "run_collision_detection_batch",
]


# --------------------------------------------------------------------------- #
# block-diagonal stacking
# --------------------------------------------------------------------------- #
class _BatchLayout:
    """Stacked CSR blocks of a batch plus the id arithmetic around them.

    Instance ``b``'s nodes occupy the contiguous stacked-id range
    ``[offsets[b], offsets[b+1])``; because blocks never share edges, any
    sorted array of stacked ids (transmitters, hearers, collisions, …) splits
    into per-instance slices with one ``searchsorted`` against ``offsets``.
    """

    def __init__(self, tasks: Sequence[SimulationTask]) -> None:
        self.tasks = list(tasks)
        self.B = len(self.tasks)
        self.ns = np.array([t.graph.n for t in self.tasks], dtype=np.int64)
        self.offsets = np.zeros(self.B + 1, dtype=np.int64)
        np.cumsum(self.ns, out=self.offsets[1:])
        self.total = int(self.offsets[-1])
        self.owner = np.repeat(np.arange(self.B, dtype=np.int64), self.ns)
        indptr_parts = [np.zeros(1, dtype=np.int64)]
        index_parts = []
        edge_base = 0
        for b, task in enumerate(self.tasks):
            indptr, indices = task.graph.csr()
            index_parts.append(indices.astype(np.int64) + self.offsets[b])
            indptr_parts.append(indptr[1:].astype(np.int64) + edge_base)
            edge_base += int(indices.size)
        self.indptr = np.concatenate(indptr_parts)
        self.indices = np.concatenate(index_parts) if index_parts else _EMPTY
        self.sources = np.array(
            [self.offsets[b] + int(t.source) for b, t in enumerate(self.tasks)],
            dtype=np.int64,
        )
        self.max_rounds = np.array([t.max_rounds for t in self.tasks], dtype=np.int64)

    def channel(self) -> _Channel:
        return _Channel.from_arrays(self.indptr, self.indices, self.total)

    def aggregates(self) -> _Aggregates:
        return _Aggregates(self.tasks, self.offsets, self.owner)

    def counts(self, ids: np.ndarray) -> np.ndarray:
        """Per-instance element counts of an array of stacked node ids.

        Forced to ``int64`` so count accumulators built from these never wrap
        on platforms where ``bincount`` returns 32-bit integers.
        """
        return np.bincount(self.owner[ids], minlength=self.B).astype(
            np.int64, copy=False
        )

    def split_points(self, ids: np.ndarray) -> np.ndarray:
        """Slice boundaries of a *sorted* stacked-id array at the block offsets."""
        return np.searchsorted(ids, self.offsets)


class _BatchRun:
    """Per-instance activity / stop / trace bookkeeping shared by all kernels.

    Every kernel records the whole batch into one
    :class:`~repro.backends.vectorized._Aggregates` (a few array calls per
    round, whatever the batch size) and the summary/none traces are built
    from it once at the end; only full-level instances also get a
    :class:`~repro.backends.vectorized._Recorder` fed per round through
    :meth:`full_slices`.
    """

    def __init__(self, lay: _BatchLayout) -> None:
        self.lay = lay
        self.recs = [
            _Recorder(t.graph.n, t.source, t.trace_level)
            if t.trace_level == TRACE_FULL
            else None
            for t in lay.tasks
        ]
        self.full = np.array([rec is not None for rec in self.recs], dtype=bool)
        self.active = lay.max_rounds >= 1
        self.stop_round = np.zeros(lay.B, dtype=np.int64)
        self.stop_reason = ["budget"] * lay.B

    def node_active(self) -> np.ndarray:
        return self.active[self.lay.owner]

    def full_slices(self, tx_ids, hears_ids, senders, collision_ids):
        """Yield ``(b, recorder, offset, transmitters, hearers, senders,
        collisions)`` for each active full-level instance: its slices of the
        round's sorted stacked-id arrays, the first three as plain ints."""
        full = np.flatnonzero(self.active & self.full)
        if not full.size:
            return
        lay = self.lay
        tx_pts = lay.split_points(tx_ids)
        rx_pts = lay.split_points(hears_ids)
        col_pts = lay.split_points(collision_ids)
        for b in full.tolist():
            off = int(lay.offsets[b])
            rx = slice(rx_pts[b], rx_pts[b + 1])
            yield (
                b,
                self.recs[b],
                off,
                tx_ids[tx_pts[b] : tx_pts[b + 1]].tolist(),
                hears_ids[rx].tolist(),
                senders[rx].tolist(),
                collision_ids[col_pts[b] : col_pts[b + 1]] - off,
            )

    def finish_round(self, r: int, condition_met: np.ndarray) -> None:
        """Close round ``r``: record stop rounds, retire satisfied/budget-out
        instances.  ``condition_met`` flags instances whose stop rule held."""
        self.stop_round[self.active] = r
        met = self.active & condition_met
        for b in np.flatnonzero(met):
            self.stop_reason[b] = "condition"
        self.active = self.active & ~met & (r < self.lay.max_rounds)

    def results(
        self, derived: List[Dict[str, Any]], agg: _Aggregates
    ) -> List[BackendResult]:
        return [
            BackendResult(
                simulation=SimulationResult(
                    trace=(
                        agg.trace_for(b, self.stop_round[b])
                        if rec is None
                        else rec.trace
                    ),
                    nodes=[],
                    stop_round=int(self.stop_round[b]),
                    stop_reason=self.stop_reason[b],
                ),
                derived=derived[b],
            )
            for b, rec in enumerate(self.recs)
        ]


def _stack_bit_labels(lay: _BatchLayout) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    x1 = np.zeros(lay.total, dtype=bool)
    x2 = np.zeros(lay.total, dtype=bool)
    x3 = np.zeros(lay.total, dtype=bool)
    for b, task in enumerate(lay.tasks):
        lo, hi = lay.offsets[b], lay.offsets[b + 1]
        a1, a2, a3 = _parse_bit_labels(task.labels, task.graph.n)
        x1[lo:hi], x2[lo:hi], x3[lo:hi] = a1, a2, a3
    return x1, x2, x3


def _stop_rule_mask(lay: _BatchLayout, rule: str) -> np.ndarray:
    return np.array([t.stop_rule == rule for t in lay.tasks], dtype=bool)


# --------------------------------------------------------------------------- #
# Algorithm B — plain broadcast, all instances per round
# --------------------------------------------------------------------------- #
def run_broadcast_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    lay = _BatchLayout(tasks)
    run = _BatchRun(lay)
    channel = lay.channel()
    x1, x2, _ = _stack_bit_labels(lay)
    stop_all = _stop_rule_mask(lay, "all_informed")

    informed = np.zeros(lay.total, dtype=bool)
    informed[lay.sources] = True
    informed_count = np.ones(lay.B, dtype=np.int64)
    informed_r = np.full(lay.total, _NEVER, dtype=np.int64)
    sent_src_prev = np.zeros(lay.total, dtype=bool)
    sent_src_prev2 = np.zeros(lay.total, dtype=bool)
    heard_stay_prev = np.zeros(lay.total, dtype=bool)
    completion: List[Optional[int]] = [None] * lay.B
    agg = lay.aggregates()

    r = 0
    while run.active.any():
        r += 1
        node_active = run.node_active()

        m3 = (informed_r == r - 2) & node_active
        m4 = (informed_r == r - 1) & node_active
        tx_source = (m3 & x1) | (
            informed & ~m3 & ~m4 & sent_src_prev2 & heard_stay_prev & node_active
        )
        if r == 1:
            tx_source[lay.sources[run.active]] = True
        tx_stay = m4 & x2

        tx_ids, hears_ids, senders, collision_ids = channel.resolve(tx_source | tx_stay)

        heard_stay_now = np.zeros(lay.total, dtype=bool)
        if hears_ids.size:
            sender_is_stay = tx_stay[senders]
            heard_stay_now[hears_ids[sender_is_stay]] = True
            mu_hearers = hears_ids[~sender_is_stay]
            new_ids = mu_hearers[~informed[mu_hearers]]
            informed[new_ids] = True
            informed_r[new_ids] = r
            informed_count += lay.counts(new_ids)
        else:
            mu_hearers = _EMPTY

        agg.add_channel(tx_ids, hears_ids, collision_ids)
        agg.add_tx(tx_ids, np.where(tx_source[tx_ids], _K_SOURCE, _K_STAY))
        agg.mark_informed(mu_hearers, r)
        for b, rec, off, b_tx, b_rx, b_snd, b_col in run.full_slices(
            tx_ids, hears_ids, senders, collision_ids
        ):
            src_msg = source_message(lay.tasks[b].payload)
            stay_msg = stay_message()
            transmissions = {
                u - off: (src_msg if tx_source[u] else stay_msg) for u in b_tx
            }
            receptions = {v - off: transmissions[u - off] for v, u in zip(b_rx, b_snd)}
            rec.full_round(r, transmissions, receptions, b_col)

        sent_src_prev2, sent_src_prev = sent_src_prev, tx_source
        heard_stay_prev = heard_stay_now
        done = informed_count == lay.ns
        for b in np.flatnonzero(run.active & done):
            if completion[b] is None:
                completion[b] = r
        run.finish_round(r, stop_all & done)

    derived = [{"completion_round": completion[b]} for b in range(lay.B)]
    return run.results(derived, agg)


# --------------------------------------------------------------------------- #
# Algorithm B_ack — acknowledged broadcast, all instances per round
# --------------------------------------------------------------------------- #
def run_acknowledged_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    lay = _BatchLayout(tasks)
    run = _BatchRun(lay)
    channel = lay.channel()
    x1, x2, x3 = _stack_bit_labels(lay)
    stop_ack = _stop_rule_mask(lay, "acknowledged")
    stop_all = _stop_rule_mask(lay, "all_informed")
    is_src = np.zeros(lay.total, dtype=bool)
    is_src[lay.sources] = True
    src_of = lay.sources[lay.owner]  # each node's own instance source

    informed = np.zeros(lay.total, dtype=bool)
    informed[lay.sources] = True
    informed_count = np.ones(lay.B, dtype=np.int64)
    informed_r = np.full(lay.total, _NEVER, dtype=np.int64)
    informed_stamp = np.zeros(lay.total, dtype=np.int64)
    sent_src_prev = np.zeros(lay.total, dtype=bool)
    sent_src_prev2 = np.zeros(lay.total, dtype=bool)
    heard_stay_prev = np.zeros(lay.total, dtype=bool)
    heard_stay_stamp = np.zeros(lay.total, dtype=np.int64)
    prev_acks: List[Tuple[int, int]] = []  # (stacked hearer id, heard stamp)
    transmit_stamps: Dict[int, Set[int]] = {}  # keyed by stacked id: disjoint per instance

    first_ack: List[Optional[int]] = [None] * lay.B
    completion: List[Optional[int]] = [None] * lay.B
    agg = lay.aggregates()

    r = 0
    while run.active.any():
        r += 1
        node_active = run.node_active()
        tx_kind = np.zeros(lay.total, dtype=np.int8)
        tx_stamp = np.zeros(lay.total, dtype=np.int64)

        if r == 1:
            srcs = lay.sources[run.active]
            tx_kind[srcs] = _K_SOURCE
            tx_stamp[srcs] = 1
        m3 = (informed_r == r - 2) & node_active
        m4 = (informed_r == r - 1) & node_active
        a3 = m3 & x1
        if a3.any():
            ids = np.flatnonzero(a3)
            stamps = informed_stamp[ids] + 2
            tx_kind[ids] = _K_SOURCE
            tx_stamp[ids] = stamps
            for v, s in zip(ids, stamps):
                transmit_stamps.setdefault(int(v), set()).add(int(s))
        a4_ack = m4 & x3
        tx_kind[a4_ack] = _K_ACK
        tx_stamp[a4_ack] = informed_stamp[a4_ack]
        a4_stay = m4 & ~x3 & x2
        tx_kind[a4_stay] = _K_STAY
        tx_stamp[a4_stay] = informed_stamp[a4_stay] + 1
        m5 = informed & ~m3 & ~m4 & heard_stay_prev & node_active
        a5 = m5 & sent_src_prev2
        if a5.any():
            ids = np.flatnonzero(a5)
            stamps = heard_stay_stamp[ids] + 1
            tx_kind[ids] = _K_SOURCE
            tx_stamp[ids] = stamps
            for v, s in zip(ids, stamps):
                if not is_src[v]:
                    transmit_stamps.setdefault(int(v), set()).add(int(s))
        for v, heard_stamp in prev_acks:
            if is_src[v] or not informed[v] or not node_active[v]:
                continue
            ir = informed_r[v]
            if ir == r - 2 or ir == r - 1 or heard_stay_prev[v] or tx_kind[v]:
                continue
            if heard_stamp in transmit_stamps.get(v, ()):
                tx_kind[v] = _K_ACK
                tx_stamp[v] = informed_stamp[v]

        tx_ids, hears_ids, senders, collision_ids = channel.resolve(tx_kind > 0)

        heard_stay_now = np.zeros(lay.total, dtype=bool)
        heard_stay_stamp_now = np.zeros(lay.total, dtype=np.int64)
        next_acks: List[Tuple[int, int]] = []
        mu_hearers = _EMPTY
        ack_hearers = _EMPTY
        if hears_ids.size:
            heard_kind = tx_kind[senders]
            heard_stamp = tx_stamp[senders]
            mu_sel = heard_kind == _K_SOURCE
            mu_hearers = hears_ids[mu_sel]
            new_sel = mu_sel & ~informed[hears_ids]
            new_ids = hears_ids[new_sel]
            informed[new_ids] = True
            informed_r[new_ids] = r
            informed_stamp[new_ids] = heard_stamp[new_sel]
            informed_count += lay.counts(new_ids)
            stay_sel = heard_kind == _K_STAY
            heard_stay_now[hears_ids[stay_sel]] = True
            heard_stay_stamp_now[hears_ids[stay_sel]] = heard_stamp[stay_sel]
            ack_sel = heard_kind == _K_ACK
            ack_hearers = hears_ids[ack_sel]
            next_acks = [
                (int(v), int(s)) for v, s in zip(ack_hearers, heard_stamp[ack_sel])
            ]
            for v in ack_hearers[ack_hearers == src_of[ack_hearers]]:
                b = int(lay.owner[v])
                if first_ack[b] is None:
                    first_ack[b] = r

        agg.add_channel(tx_ids, hears_ids, collision_ids)
        agg.add_tx(tx_ids, tx_kind[tx_ids], tx_stamp[tx_ids])
        agg.mark_informed(mu_hearers, r)
        agg.mark_acks(ack_hearers, r)
        for b, rec, off, b_tx, b_rx, b_snd, b_col in run.full_slices(
            tx_ids, hears_ids, senders, collision_ids
        ):
            transmissions: Dict[int, Message] = {}
            for u in b_tx:
                stamp = int(tx_stamp[u])
                if tx_kind[u] == _K_SOURCE:
                    msg = source_message(lay.tasks[b].payload, round_stamp=stamp)
                elif tx_kind[u] == _K_STAY:
                    msg = stay_message(round_stamp=stamp)
                else:
                    msg = ack_message(stamp)
                transmissions[u - off] = msg
            receptions = {v - off: transmissions[u - off] for v, u in zip(b_rx, b_snd)}
            rec.full_round(r, transmissions, receptions, b_col)

        sent_src_prev2, sent_src_prev = sent_src_prev, tx_kind == _K_SOURCE
        heard_stay_prev = heard_stay_now
        heard_stay_stamp = heard_stay_stamp_now
        prev_acks = next_acks
        done = informed_count == lay.ns
        for b in np.flatnonzero(run.active & done):
            if completion[b] is None:
                completion[b] = r
        acked = np.array([fa is not None for fa in first_ack], dtype=bool)
        run.finish_round(r, (stop_ack & acked) | (stop_all & done))

    derived = [
        {"completion_round": completion[b], "acknowledgement_round": first_ack[b]}
        for b in range(lay.B)
    ]
    return run.results(derived, agg)


# --------------------------------------------------------------------------- #
# Algorithm B_arb — arbitrary-source broadcast, all instances per round
# --------------------------------------------------------------------------- #
def run_arbitrary_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    """B_arb over stacked instances: per-instance coordinator state as arrays.

    The blocker that kept B_arb out of the stacked engine was the
    coordinator's scalar scheduling state (T, the READY/SOURCE phase timers,
    the learned payload).  Here every scalar becomes a length-B array — with
    ``-1`` standing in for "not scheduled" (real rounds start at 1) and a
    ``has`` mask wherever 0 is a legal value — and the coordinator branches
    become per-instance masks, so one kernel round advances every instance's
    three acknowledged-broadcast phases together.  The sparse events (the
    ack chains, the per-node transmitted-stamp sets) stay keyed by *stacked*
    node id, which is disjoint across instances by construction; outcomes are
    bit-for-bit identical to the single-instance kernel (asserted by
    ``tests/test_batched_equivalence.py``).
    """
    lay = _BatchLayout(tasks)
    run = _BatchRun(lay)
    channel = lay.channel()
    x1, x2, x3 = _stack_bit_labels(lay)
    stop_arb = _stop_rule_mask(lay, "arb_complete")
    B, total = lay.B, lay.total

    coords_local: List[int] = []
    for task in lay.tasks:
        coordinator = task.extras.get("coordinator")
        if coordinator is None:
            matches = [v for v in range(task.graph.n) if task.labels[v] == "111"]
            if not matches:
                raise BackendError("λ_arb labeling has no coordinator label '111'")
            coordinator = matches[0]
        coords_local.append(int(coordinator))
    coords = lay.offsets[:-1] + np.array(coords_local, dtype=np.int64)
    srcs = lay.sources
    coord_of = coords[lay.owner]  # each node's own instance coordinator
    payloads = [t.payload for t in lay.tasks]

    # Per-phase stacked state: 0 = initialize, 1 = ready, 2 = source.
    ph_inf = np.full((3, total), _NEVER, dtype=np.int64)
    ph_stamp = np.zeros((3, total), dtype=np.int64)
    transmit_stamps: Tuple[Dict[int, Set[int]], ...] = ({}, {}, {})
    t_v = np.full(total, -1, dtype=np.int64)
    t_v[coords] = 0
    T_arr = np.full(total, -1, dtype=np.int64)
    known = np.zeros(total, dtype=bool)
    completion_known = np.zeros(total, dtype=np.int64)

    sent_kind_prev = np.zeros(total, dtype=np.int8)
    sent_kind_prev2 = np.zeros(total, dtype=np.int8)
    heard_stay_prev = np.zeros(total, dtype=bool)
    heard_stay_stamp = np.zeros(total, dtype=np.int64)
    prev_acks: List[Tuple[int, int, Any]] = []  # (stacked hearer, stamp, payload)

    # Coordinator / actual-source scheduling state, one slot per instance.
    # T_c_val is only meaningful where T_c_has (0 is a legal T value).
    T_c_val = np.zeros(B, dtype=np.int64)
    T_c_has = np.zeros(B, dtype=bool)
    sched_ready = np.full(B, -1, dtype=np.int64)
    sched_source = np.full(B, -1, dtype=np.int64)
    ready_sent = np.full(B, -1, dtype=np.int64)
    sched_src_ack = np.full(B, -1, dtype=np.int64)
    learned_payload: List[Any] = [
        payloads[b] if coords_local[b] == int(srcs[b] - lay.offsets[b]) else None
        for b in range(B)
    ]
    coord_ack_first: List[Optional[int]] = [None] * B
    coord_ack_last: List[Optional[int]] = [None] * B

    agg = lay.aggregates()

    r = 0
    while run.active.any():
        r += 1
        node_active = run.node_active()
        active = run.active
        tx_kind = np.zeros(total, dtype=np.int8)
        tx_stamp = np.zeros(total, dtype=np.int64)
        ack_payloads: Dict[int, Any] = {}
        decided = np.zeros(total, dtype=bool)

        # Coordinator phase starts (the single-instance kernel's elif chain,
        # checked first; every instance's local clock starts at round 1).
        if r == 1:
            ids = coords[active]
            tx_kind[ids] = _K_INIT
            tx_stamp[ids] = 1
            decided[ids] = True
        else:
            m_ready = active & (sched_ready == r) & T_c_has
            if m_ready.any():
                ready_sent[m_ready] = r
                m_rs = m_ready & (coords == srcs)
                sched_source[m_rs] = r + T_c_val[m_rs] + 1
                ids = coords[m_ready]
                tx_kind[ids] = _K_READY
                tx_stamp[ids] = r
                decided[ids] = True
            learned_has = np.fromiter(
                (lp is not None for lp in learned_payload), dtype=bool, count=B
            )
            m_src = active & ~m_ready & (sched_source == r) & learned_has
            if m_src.any():
                ids = coords[m_src]
                known[ids] = True
                completion_known[ids] = r + T_c_val[m_src] - 1
                tx_kind[ids] = _K_SOURCE
                tx_stamp[ids] = r
                decided[ids] = True

        # The actual source starts the phase-2 acknowledgement after its timer.
        m_sa = active & (sched_src_ack == r) & ~decided[srcs]
        if m_sa.any():
            ids = srcs[m_sa]
            tx_kind[ids] = _K_ACK
            tx_stamp[ids] = ph_stamp[1][ids]
            for b in np.flatnonzero(m_sa):
                ack_payloads[int(srcs[b])] = payloads[b]
            decided[ids] = True

        # Shared B_ack rules, per phase, in phase order.
        und = ~decided & node_active
        for k in range(3):
            inf_k = ph_inf[k]
            stamp_k = ph_stamp[k]
            mA = und & (inf_k == r - 2) & x1
            if mA.any():
                ids = np.flatnonzero(mA)
                stamps = stamp_k[ids] + 2
                tx_kind[ids] = _K_INIT + k
                tx_stamp[ids] = stamps
                for v, s in zip(ids, stamps):
                    transmit_stamps[k].setdefault(int(v), set()).add(int(s))
                und &= ~mA
            newly1 = inf_k == r - 1
            if k == 0:  # z starts the phase-1 ack, appending T = t_z
                mAck = und & newly1 & x3
                if mAck.any():
                    ids = np.flatnonzero(mAck)
                    tx_kind[ids] = _K_ACK
                    tx_stamp[ids] = stamp_k[ids]
                    for v in ids:
                        ack_payloads[int(v)] = int(stamp_k[v])
                    und &= ~mAck
            mStay = und & newly1 & x2
            if mStay.any():
                tx_kind[mStay] = _K_STAY
                tx_stamp[mStay] = stamp_k[mStay] + 1
                und &= ~mStay

        # Stay-triggered retransmission (any phase, coordinator included).
        mS = und & heard_stay_prev
        aS = mS & (sent_kind_prev2 >= _K_INIT) & (sent_kind_prev2 <= _K_SOURCE)
        if aS.any():
            ids = np.flatnonzero(aS)
            stamps = heard_stay_stamp[ids] + 1
            tx_kind[ids] = sent_kind_prev2[ids]
            tx_stamp[ids] = stamps
            for v, s in zip(ids, stamps):
                if int(v) != int(coord_of[v]):
                    transmit_stamps[int(sent_kind_prev2[v]) - _K_INIT].setdefault(
                        int(v), set()
                    ).add(int(s))
            und &= ~aS

        # Ack relaying (sparse: each chain walks back one hop per round).
        for v, heard_stamp, ack_pay in prev_acks:
            if v == int(coord_of[v]) or not und[v] or tx_kind[v]:
                continue
            for k in range(3):
                stamps_v = transmit_stamps[k].get(v)
                if stamps_v and heard_stamp in stamps_v:
                    tx_kind[v] = _K_ACK
                    tx_stamp[v] = ph_stamp[k][v]
                    ack_payloads[v] = ack_pay
                    break

        tx_ids, hears_ids, senders, collision_ids = channel.resolve(tx_kind > 0)

        # Deliver.
        heard_stay_now = np.zeros(total, dtype=bool)
        heard_stay_stamp_now = np.zeros(total, dtype=np.int64)
        next_acks: List[Tuple[int, int, Any]] = []
        mu_hearers = _EMPTY
        ack_hearers = _EMPTY
        if hears_ids.size:
            heard_kind = tx_kind[senders]
            heard_stamp = tx_stamp[senders]
            for k in range(3):  # first receipt of a phase's broadcast payload
                sel = heard_kind == _K_INIT + k
                if not sel.any():
                    continue
                vs = hears_ids[sel]
                sts = heard_stamp[sel]
                keep = (vs != coord_of[vs]) & (ph_inf[k][vs] == _NEVER)
                vs, sts = vs[keep], sts[keep]
                if vs.size == 0:
                    continue
                ph_inf[k][vs] = r
                ph_stamp[k][vs] = sts
                if k == 0:
                    t_v[vs] = sts
                elif k == 1:
                    ov = lay.owner[vs]
                    T_arr[vs] = np.where(T_c_has[ov], T_c_val[ov], 0)
                    src_hits = vs[vs == srcs[ov]]
                    for v in src_hits:
                        b = int(lay.owner[v])
                        sched_src_ack[b] = r + int(T_arr[v]) + 1
                else:
                    ready_t = (T_arr[vs] >= 0) & (t_v[vs] >= 0)
                    done = vs[ready_t]
                    known[done] = True
                    completion_known[done] = r + T_arr[done] - t_v[done]
            mu_hearers = hears_ids[heard_kind == _K_SOURCE]
            stay_sel = heard_kind == _K_STAY
            heard_stay_now[hears_ids[stay_sel]] = True
            heard_stay_stamp_now[hears_ids[stay_sel]] = heard_stamp[stay_sel]
            ack_sel = heard_kind == _K_ACK
            ack_hearers = hears_ids[ack_sel]
            if ack_hearers.size:
                for v, s, u in zip(
                    ack_hearers, heard_stamp[ack_sel], senders[ack_sel]
                ):
                    pay = ack_payloads.get(int(u))
                    next_acks.append((int(v), int(s), pay))
                    if int(v) == int(coord_of[v]):
                        b = int(lay.owner[v])
                        coord_ack_last[b] = r
                        if coord_ack_first[b] is None:
                            coord_ack_first[b] = r
                        if not T_c_has[b]:
                            T_c_val[b] = int(pay) if pay is not None else 0
                            T_c_has[b] = True
                            sched_ready[b] = r + T_c_val[b] + 1
                        elif (
                            ready_sent[b] != -1
                            and r > ready_sent[b]
                            and sched_source[b] == -1
                        ):
                            learned_payload[b] = pay
                            sched_source[b] = r + T_c_val[b] + 1

        # Record.
        agg.add_channel(tx_ids, hears_ids, collision_ids)
        agg.add_tx(tx_ids, tx_kind[tx_ids], tx_stamp[tx_ids])
        for u, pay in ack_payloads.items():
            bits, msgs = _ack_payload_cost(pay)
            b = int(lay.owner[u])
            agg.fixed_extra[b] += bits
            agg.payload_extra[b] += msgs
        agg.mark_informed(mu_hearers, r)
        agg.mark_acks(ack_hearers, r)
        for b, rec, off, b_tx, b_rx, b_snd, b_col in run.full_slices(
            tx_ids, hears_ids, senders, collision_ids
        ):
            transmissions: Dict[int, Message] = {}
            for u in b_tx:
                kind = int(tx_kind[u])
                stamp = int(tx_stamp[u])
                if kind == _K_INIT:
                    msg = initialize_message(round_stamp=stamp)
                elif kind == _K_READY:
                    msg = ready_message(int(T_c_val[b]), round_stamp=stamp)
                elif kind == _K_SOURCE:
                    msg = source_message(learned_payload[b], round_stamp=stamp)
                elif kind == _K_STAY:
                    msg = stay_message(round_stamp=stamp)
                else:
                    msg = ack_message(stamp, payload=ack_payloads.get(u))
                transmissions[u - off] = msg
            receptions = {v - off: transmissions[u - off] for v, u in zip(b_rx, b_snd)}
            rec.full_round(r, transmissions, receptions, b_col)

        sent_kind_prev2, sent_kind_prev = sent_kind_prev, tx_kind
        heard_stay_prev = heard_stay_now
        heard_stay_stamp = heard_stay_stamp_now
        prev_acks = next_acks
        known_all = np.bincount(lay.owner[known], minlength=B) == lay.ns
        run.finish_round(r, stop_arb & known_all)

    # Derived outcomes, mirroring the single-instance kernel's derivation.
    derived: List[Dict[str, Any]] = []
    for b in range(B):
        lo, hi = int(lay.offsets[b]), int(lay.offsets[b + 1])
        c_local = coords_local[b]
        src_local = int(srcs[b]) - lo
        receipt_rounds: List[int] = []
        missing = False
        for v in range(hi - lo):
            if v in (src_local, c_local):
                continue
            if ph_inf[2][lo + v] == _NEVER:
                missing = True
                break
            receipt_rounds.append(int(ph_inf[2][lo + v]))
        coordinator_learned_round = (
            coord_ack_last[b] if c_local != src_local else None
        )
        completion: Optional[int] = None
        if not missing and (learned_payload[b] is not None or c_local == src_local):
            candidates = list(receipt_rounds)
            if coordinator_learned_round is not None:
                candidates.append(coordinator_learned_round)
            completion = max(candidates) if candidates else 1
        common: Optional[int] = None
        if bool(known[lo:hi].all()) and hi > lo:
            values = np.unique(completion_known[lo:hi])
            if values.size == 1:
                common = int(values[0])
        derived.append(
            {
                "completion_round": completion,
                "acknowledgement_round": coord_ack_first[b],
                "common_completion_round": common,
                "coordinator": c_local,
            }
        )

    for b in range(B):
        n_ready = agg.kind_count(b, _K_READY)
        if n_ready:
            # T is fixed from the moment the first READY exists, so the
            # whole-run payload-bit total is one multiply.
            agg.fixed_extra[b] += n_ready * _int_payload_bits(int(T_c_val[b]))
    return run.results(derived, agg)


# --------------------------------------------------------------------------- #
# Source-flood baselines: shared stacked loop
# --------------------------------------------------------------------------- #
def _run_flood_batch(tasks, make_tx_mask) -> List[BackendResult]:
    """Stacked version of the single-instance source-flood loop.

    ``make_tx_mask(lay)`` compiles the batch's per-round transmit rule into a
    callable ``tx(r, informed, active) -> bool mask`` over stacked node ids.
    """
    lay = _BatchLayout(tasks)
    run = _BatchRun(lay)
    channel = lay.channel()
    tx_mask_for_round = make_tx_mask(lay)
    stop_all = _stop_rule_mask(lay, "all_informed")

    informed = np.zeros(lay.total, dtype=bool)
    informed[lay.sources] = True
    informed_count = np.ones(lay.B, dtype=np.int64)
    completion: List[Optional[int]] = [None] * lay.B
    agg = lay.aggregates()

    r = 0
    while run.active.any():
        r += 1
        tx_mask = tx_mask_for_round(r, informed, run.active) & run.node_active()
        tx_ids, hears_ids, senders, collision_ids = channel.resolve(tx_mask)
        if hears_ids.size:
            new_ids = hears_ids[~informed[hears_ids]]
            informed[new_ids] = True
            informed_count += lay.counts(new_ids)

        agg.add_channel(tx_ids, hears_ids, collision_ids)
        agg.add_tx(tx_ids, _K_SOURCE)
        agg.mark_informed(hears_ids, r)
        for b, rec, off, b_tx, b_rx, _, b_col in run.full_slices(
            tx_ids, hears_ids, senders, collision_ids
        ):
            msg = source_message(lay.tasks[b].payload)
            transmissions = {u - off: msg for u in b_tx}
            receptions = {v - off: msg for v in b_rx}
            rec.full_round(r, transmissions, receptions, b_col)

        done = informed_count == lay.ns
        for b in np.flatnonzero(run.active & done):
            if completion[b] is None:
                completion[b] = r
        run.finish_round(r, stop_all & done)

    derived = [{"completion_round": completion[b]} for b in range(lay.B)]
    return run.results(derived, agg)


def run_slotted_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    """Round-robin / G²-colouring TDMA over stacked instances."""

    def make(lay: _BatchLayout):
        slots = np.zeros(lay.total, dtype=np.int64)
        periods = np.ones(lay.total, dtype=np.int64)
        for b, task in enumerate(lay.tasks):
            lo, hi = lay.offsets[b], lay.offsets[b + 1]
            s, p = _parse_slot_labels(task.labels, task.graph.n)
            slots[lo:hi], periods[lo:hi] = s, p
        slot_residue = slots % periods

        def tx(r: int, informed: np.ndarray, active: np.ndarray) -> np.ndarray:
            return informed & ((r % periods) == slot_residue)

        return tx

    return _run_flood_batch(tasks, make)


def run_centralized_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    """Centralized precomputed schedules over stacked instances."""

    def make(lay: _BatchLayout):
        schedules = [
            [
                np.asarray(round_ids, dtype=np.int64) + lay.offsets[b]
                for round_ids in task.extras.get("schedule", ())
            ]
            for b, task in enumerate(lay.tasks)
        ]

        def tx(r: int, informed: np.ndarray, active: np.ndarray) -> np.ndarray:
            mask = np.zeros(lay.total, dtype=bool)
            for b in np.flatnonzero(active):
                schedule = schedules[b]
                if r <= len(schedule):
                    mask[schedule[r - 1]] = True
            return mask & informed

        return tx

    return _run_flood_batch(tasks, make)


# --------------------------------------------------------------------------- #
# Collision-detection bit signalling — the OR-channel relay as array kernels
# --------------------------------------------------------------------------- #
def run_collision_detection_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    """Anonymous bit-signalling broadcast, all instances per round.

    Mirrors :class:`~repro.baselines.collision_detection.BitSignalNode` branch
    for branch: the source emits symbol ``k`` in round ``3k + 1``; a node's
    first perceived energy (a message, or a collision under the detection
    channel) fixes its slot alignment; from then on it appends one symbol per
    slot (energy = 1, silence = 0) and relays symbol ``k`` one round after
    its listening round.  Payload decoding — the only non-array step — runs
    once per node, when its stream first spans the length header plus the
    advertised data bits.
    """
    lay = _BatchLayout(tasks)
    run = _BatchRun(lay)
    channel = lay.channel()
    stop_decoded = _stop_rule_mask(lay, "all_decoded")
    payload_strs = [str(t.payload) for t in lay.tasks]
    detection = np.array(
        [getattr(t.collision_model, "provides_detection", False) for t in lay.tasks],
        dtype=bool,
    )
    det_node = detection[lay.owner]
    is_src = np.zeros(lay.total, dtype=bool)
    is_src[lay.sources] = True

    # Source symbol streams: [preamble 1] + header + data, one per instance.
    streams = [
        np.array([1] + encode_payload_bits(p), dtype=np.int8) for p in payload_strs
    ]
    sym_len = np.array([s.size for s in streams], dtype=np.int64)
    s_max = int(sym_len.max())
    sym_arr = np.zeros((lay.B, s_max), dtype=np.int8)
    for b, stream in enumerate(streams):
        sym_arr[b, : stream.size] = stream

    # Received symbol streams.  A corrupted header can advertise more data
    # bits than the true stream carries, but a node can never append more
    # than one symbol per slot, so the budget bounds the stream length.
    cap = int(lay.max_rounds.max()) // SLOT_LENGTH + 2 if lay.B else 2
    recv = np.zeros((lay.total, cap), dtype=np.int8)
    recv_len = np.zeros(lay.total, dtype=np.int64)
    start_r = np.full(lay.total, -1, dtype=np.int64)
    decoded = np.zeros(lay.total, dtype=bool)
    decoded[lay.sources] = True
    matches = np.zeros(lay.total, dtype=bool)
    matches[lay.sources] = True  # the source holds µ verbatim
    attempted = np.zeros(lay.total, dtype=bool)
    need_len = np.full(lay.total, -1, dtype=np.int64)
    decoded_count = np.ones(lay.B, dtype=np.int64)
    pow_header = (1 << np.arange(LENGTH_HEADER_BITS - 1, -1, -1)).astype(np.int64)
    agg = lay.aggregates()

    r = 0
    while run.active.any():
        r += 1
        node_active = run.node_active()
        tx_mask = np.zeros(lay.total, dtype=bool)

        # Sources: all slots are globally aligned (every instance starts at
        # round 1), so one (k, offset) pair covers every source.
        k_src, off_src = divmod(r - 1, SLOT_LENGTH)
        if off_src == 0 and k_src < s_max:
            emit = run.active & (k_src < sym_len) & (sym_arr[:, k_src] == 1)
            tx_mask[lay.sources[emit]] = True
        # Relays: echo symbol k one round after the listening round for it.
        started_ids = np.flatnonzero((start_r >= 0) & node_active)
        if started_ids.size:
            delta = r - start_r[started_ids]
            k = delta // SLOT_LENGTH
            relay = (delta % SLOT_LENGTH == 1) & (k < recv_len[started_ids])
            rel_ids = started_ids[relay]
            if rel_ids.size:
                bits = recv[rel_ids, k[relay]]
                tx_mask[rel_ids[bits == 1]] = True

        tx_ids, hears_ids, senders, collision_ids = channel.resolve(tx_mask)

        # Perceived energy: a heard message always; a collision only under
        # the detection channel.
        energy = np.zeros(lay.total, dtype=bool)
        energy[hears_ids] = True
        if collision_ids.size:
            energy[collision_ids[det_node[collision_ids]]] = True
        listeners = ~is_src & node_active & ~tx_mask

        new_start = listeners & energy & (start_r < 0)
        ns_ids = np.flatnonzero(new_start)
        if ns_ids.size:
            start_r[ns_ids] = r
            recv[ns_ids, 0] = 1
            recv_len[ns_ids] = 1

        appenders = np.flatnonzero(listeners & (start_r >= 0) & ~new_start)
        if appenders.size:
            delta = r - start_r[appenders]
            k = delta // SLOT_LENGTH
            sel = (delta % SLOT_LENGTH == 0) & (k == recv_len[appenders])
            aids = appenders[sel]
            if aids.size:
                recv[aids, k[sel]] = energy[aids].astype(np.int8)
                recv_len[aids] += 1
                data_bits = recv_len[aids] - 1  # the preamble is not data
                hdr_ids = aids[
                    (need_len[aids] < 0) & (data_bits >= LENGTH_HEADER_BITS)
                ]
                if hdr_ids.size:
                    need_len[hdr_ids] = LENGTH_HEADER_BITS + (
                        recv[hdr_ids, 1 : 1 + LENGTH_HEADER_BITS].astype(np.int64)
                        @ pow_header
                    )
                complete = aids[
                    ~attempted[aids]
                    & (need_len[aids] >= 0)
                    & (data_bits >= need_len[aids])
                ]
                for v in complete:
                    v = int(v)
                    attempted[v] = True  # decode is a pure function of the
                    # now-fixed stream prefix: one attempt settles it forever
                    text = decode_payload_bits(
                        [int(bit) for bit in recv[v, 1 : recv_len[v]]]
                    )
                    if text is not None:
                        decoded[v] = True
                        b = int(lay.owner[v])
                        decoded_count[b] += 1
                        matches[v] = text == payload_strs[b]

        agg.add_channel(tx_ids, hears_ids, collision_ids)
        agg.add_tx(tx_ids, _K_SOURCE)
        agg.mark_informed(hears_ids, r)
        for b, rec, off, b_tx, b_rx, _, b_col in run.full_slices(
            tx_ids, hears_ids, senders, collision_ids
        ):
            msg = source_message("1")
            transmissions = {u - off: msg for u in b_tx}
            receptions = {v - off: msg for v in b_rx}
            rec.full_round(r, transmissions, receptions, b_col)

        run.finish_round(r, stop_decoded & (decoded_count == lay.ns))

    derived = []
    for b in range(lay.B):
        lo, hi = lay.offsets[b], lay.offsets[b + 1]
        derived.append(
            {
                "all_decoded": bool(decoded[lo:hi].all()),
                "decoded_correctly": bool(matches[lo:hi].all()),
            }
        )
    return run.results(derived, agg)


# --------------------------------------------------------------------------- #
# the backend
# --------------------------------------------------------------------------- #
_BATCH_KERNELS = {
    "broadcast": run_broadcast_batch,
    "acknowledged": run_acknowledged_batch,
    "arbitrary": run_arbitrary_batch,
    "round_robin": run_slotted_batch,
    "coloring_tdma": run_slotted_batch,
    "centralized": run_centralized_batch,
    "collision_detection": run_collision_detection_batch,
}


class BatchedVectorizedBackend(SimulationBackend):
    """Stacked-CSR NumPy kernels advancing many instances per round.

    Parameters
    ----------
    strict:
        If true, :meth:`run_batch` raises :class:`BackendError` on tasks the
        stacked kernels cannot execute instead of silently running them per
        task through the single-instance vectorized backend.
    """

    name = "batched"

    def __init__(self, *, strict: bool = False) -> None:
        self.strict = strict
        self._fallback = VectorizedBackend()

    def supports(self, task: SimulationTask) -> bool:
        """True if a stacked kernel covers ``task`` (same model envelope as
        the single-instance vectorized backend)."""
        return task.protocol in _BATCH_KERNELS and self._fallback.supports(task)

    def run_task(self, task: SimulationTask) -> BackendResult:
        return self.run_batch([task])[0]

    def run_batch(self, tasks: Sequence[SimulationTask]) -> List[BackendResult]:
        """Execute a homogeneous batch, stacked where possible.

        All tasks must share one protocol and one trace level (mixing either
        is a grouping bug in the caller and raises).  Tasks outside the
        stacked kernels' envelope — non-default fault/clock/collision models,
        custom node factories — run per task through the vectorized backend,
        which itself falls back to the reference engine where needed, so
        results are always exactly what per-task execution would have
        produced (and each result's ``backend`` tag names the engine that
        actually ran it).
        """
        tasks = list(tasks)
        if not tasks:
            return []
        protocols = sorted({t.protocol for t in tasks})
        if len(protocols) > 1:
            raise BackendError(
                f"cannot batch tasks with mixed protocols {protocols}; "
                f"group tasks by protocol before batching"
            )
        levels = sorted({t.trace_level for t in tasks})
        if len(levels) > 1:
            raise BackendError(
                f"cannot batch tasks with mixed trace levels {levels}; "
                f"group tasks by trace level before batching"
            )
        stacked = [i for i, t in enumerate(tasks) if self.supports(t)]
        stacked_set = set(stacked)
        fallback = [i for i in range(len(tasks)) if i not in stacked_set]
        if fallback and self.strict:
            task = tasks[fallback[0]]
            raise BackendError(
                f"batched backend has no stacked kernel for protocol "
                f"{task.protocol!r} with the given channel models"
            )
        results: List[Optional[BackendResult]] = [None] * len(tasks)
        if stacked:
            for i, out in zip(
                stacked, _BATCH_KERNELS[protocols[0]]([tasks[i] for i in stacked])
            ):
                out.backend = self.name
                results[i] = out
        for i in fallback:
            # Fallback results keep the inner engine's provenance tag, so the
            # metrics row of a per-task fallback names the engine that ran it.
            results[i] = self._fallback.run_task(tasks[i])
        return results
