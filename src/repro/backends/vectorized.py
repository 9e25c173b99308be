"""Vectorized CSR simulation backend.

One round of the paper's radio model — "a listener hears a message iff exactly
one neighbour transmits" — is a sparse matrix–vector product of the adjacency
matrix with the 0/1 transmit vector.  This backend precompiles the three
labeled protocols (B, B_ack, B_arb), the round-robin / TDMA baselines and the
centralized-schedule baseline into NumPy array kernels over the graph's
prebuilt CSR arrays:

* the per-listener transmitter count is one ``bincount`` over the concatenated
  CSR neighbour slices of the transmitters (the SpMV);
* the identity of the unique transmitter heard by a count-1 listener falls out
  of a second weighted ``bincount`` (sum of transmitter ids — exact where the
  count is one);
* the decision rules of the object protocols are applied branch for branch,
  in the same priority order, so outcomes are **bit-for-bit identical** to
  the :class:`~repro.backends.reference.ReferenceBackend` (asserted by
  ``tests/test_backend_equivalence.py``).

**The calendar.**  Every rule of the paper's algorithms fires from a recent
event: a node informed in round r−1 or r−2 (µ with bit x1, *stay* with x2, an
ack with x3), a node that heard *stay* in r−1 after sending µ in r−2, an ack
heard in r−1, one of B_arb's timers (the coordinator's READY and µ rounds,
the true source's phase-2 ack), or — for round-robin / TDMA — an informed
node's next slot r′ ≡ slot (mod period).  Each kernel files a node in a
:class:`_Calendar` (a heap of rounds, each with its candidate index arrays
grouped by rule) the moment the enabling event happens, and a round decides
over those candidates only, never over length-n masks.

**The jump rule.**  A round nobody was filed for has no transmitter, so
nothing in it can change: the loop goes straight to the next filed round,
and when nothing is filed at all it jumps to ``max_rounds`` with stop reason
``"budget"``.  Every stop rule (all informed, source acknowledged, everyone
knows the completion round) can only become true in round 1 — where it may
already hold, as with a single node — or in a round with a reception or a
timer.  Every kernel visits round 1 (the labeled protocols always transmit
there; the source-flood loop visits it even when nothing is filed) and the
calendar visits every other such round, so a jump never passes a stop.

**Aggregate recording.**  With ``trace_level="summary"``/``"none"`` a round
records into :class:`_Aggregates` — running totals, transmitter kinds and
stamp bits, each one ``bincount`` per round, and per-node first-informed /
ack rounds — and the trace is built once at the end with
:meth:`~repro.radio.trace.ExecutionTrace.from_aggregates`.  The batched
engine records through the same class.  ``"full"`` traces append one
:class:`~repro.radio.trace.RoundRecord` per visited round and an empty one
for every skipped round, so they equal the reference engine's record for
record.

The collision-detection bit-signalling baseline is compiled too — its kernel
natively implements the detection channel (energy = message or collision) and
the slot-aligned symbol relay.  Tasks the kernels do not cover (custom node
factories, fault/clock models other than the paper's defaults) are delegated
to the reference backend, so ``--backend vectorized`` is always safe to pass.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..radio.clock import SynchronizedClocks
from ..radio.collision import NoCollisionDetection, WithCollisionDetection
from ..radio.engine import SimulationResult
from ..radio.faults import NoFaults
from ..radio.messages import (
    Message,
    ack_message,
    initialize_message,
    ready_message,
    source_message,
    stay_message,
)
from ..radio.trace import ExecutionTrace, RoundRecord
from .base import BackendError, BackendResult, SimulationBackend, SimulationTask
from .reference import ReferenceBackend

__all__ = ["VectorizedBackend"]

# Transmission kind codes used by the kernels (0 = listen).
_K_NONE = 0
_K_INIT = 1
_K_READY = 2
_K_SOURCE = 3
_K_STAY = 4
_K_ACK = 5
_KIND_NAMES = {
    _K_INIT: "initialize",
    _K_READY: "ready",
    _K_SOURCE: "source",
    _K_STAY: "stay",
    _K_ACK: "ack",
}
_N_KINDS = _K_ACK + 1

#: Sentinel for "never" in round-number arrays (any valid round is >= 1, and
#: the rules compare against r-2 >= -1, so -5 can never match).
_NEVER = -5

_EMPTY = np.empty(0, dtype=np.int64)


def _cat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate id arrays without copying the common one-part case."""
    if not parts:
        return _EMPTY
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# --------------------------------------------------------------------------- #
# label parsing
# --------------------------------------------------------------------------- #
def _parse_bit_labels(labels, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``x1 x2 [x3]`` labels into three boolean arrays."""
    x1 = np.zeros(n, dtype=bool)
    x2 = np.zeros(n, dtype=bool)
    x3 = np.zeros(n, dtype=bool)
    for v in range(n):
        lab = labels[v]
        x1[v] = len(lab) > 0 and lab[0] == "1"
        x2[v] = len(lab) > 1 and lab[1] == "1"
        x3[v] = len(lab) > 2 and lab[2] == "1"
    return x1, x2, x3


def _parse_slot_labels(labels, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split two-field ``bits(slot) ++ bits(period-1)`` labels into arrays."""
    slots = np.zeros(n, dtype=np.int64)
    periods = np.ones(n, dtype=np.int64)
    for v in range(n):
        lab = labels[v]
        if len(lab) % 2 != 0:
            raise BackendError(f"malformed slotted label {lab!r} for node {v}")
        half = len(lab) // 2
        slots[v] = int(lab[:half], 2)
        periods[v] = int(lab[half:], 2) + 1
    return slots, periods


# --------------------------------------------------------------------------- #
# bit accounting
# --------------------------------------------------------------------------- #
def _stamp_bits(stamps: np.ndarray) -> np.ndarray:
    """``max(1, ceil(log2(stamp + 2)))`` per stamp — the paper's stamp cost."""
    # ceil(log2(s + 2)) == bit_length(s + 1) for s >= 0; exact in float64 for
    # every round stamp a simulation can produce.
    return np.floor(np.log2(stamps.astype(np.float64) + 1.0)).astype(np.int64) + 1


def _int_payload_bits(value: int) -> int:
    """Bits charged for an integer payload (``max(1, ceil(log2(|v| + 2)))``)."""
    return max(1, (abs(int(value)) + 1).bit_length())


# --------------------------------------------------------------------------- #
# the channel: one SpMV per round
# --------------------------------------------------------------------------- #
class _Channel:
    """CSR adjacency plus the per-round collision-resolution kernel."""

    def __init__(self, graph) -> None:
        self.n = graph.n
        self.indptr, self.indices = graph.csr()

    @classmethod
    def from_arrays(cls, indptr: np.ndarray, indices: np.ndarray, n: int) -> "_Channel":
        """Build a channel over prestacked CSR arrays (the batched engine's
        block-diagonal adjacency) without materialising a Graph."""
        channel = cls.__new__(cls)
        channel.n = n
        channel.indptr = indptr
        channel.indices = indices
        return channel

    def resolve(
        self, tx_mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Resolve one round given a boolean transmit mask (see :meth:`resolve_ids`)."""
        return self.resolve_ids(np.flatnonzero(tx_mask))

    def resolve_ids(
        self, tx_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Resolve one round of the radio channel.

        ``tx_ids`` are the round's distinct transmitters, in any order.
        Returns ``(tx_ids, hears_ids, senders, collision_ids)`` where
        ``senders[i]`` is the unique transmitting neighbour heard by
        ``hears_ids[i]`` and ``collision_ids`` are the listeners with two or
        more transmitting neighbours (both sorted ascending).
        """
        if tx_ids.size == 0:
            return tx_ids, _EMPTY, _EMPTY, _EMPTY
        indptr, indices = self.indptr, self.indices
        deg = indptr[tx_ids + 1] - indptr[tx_ids]
        total = int(deg.sum())
        if total == 0:
            return tx_ids, _EMPTY, _EMPTY, _EMPTY
        base = np.repeat(indptr[tx_ids] - (np.cumsum(deg) - deg), deg)
        targets = indices[base + np.arange(total, dtype=np.int64)]
        # ``bincount`` returns the platform's intp dtype; force 64-bit so
        # receive counts (and everything derived from them) can never wrap on
        # 32-bit platforms even for n >= 10^6 high-degree instances.
        counts = np.bincount(targets, minlength=self.n).astype(np.int64, copy=False)
        counts[tx_ids] = 0  # transmitters hear nothing in their own round
        hears_ids = np.flatnonzero(counts == 1)
        collision_ids = np.flatnonzero(counts >= 2)
        if hears_ids.size:
            owners = np.repeat(tx_ids, deg).astype(np.float64)
            sums = np.bincount(targets, weights=owners, minlength=self.n)
            senders = sums[hears_ids].astype(np.int64)
        else:
            senders = _EMPTY
        return tx_ids, hears_ids, senders, collision_ids


# --------------------------------------------------------------------------- #
# trace recording
# --------------------------------------------------------------------------- #
class _Recorder:
    """Shared trace plumbing: full RoundRecords or O(1) summary increments."""

    def __init__(self, n: int, source: Optional[int], level: str) -> None:
        self.level = level
        self.full = level == "full"
        self.per_node = level != "none"
        self.trace = ExecutionTrace(num_nodes=n, source=source, level=level)

    def full_round(
        self,
        r: int,
        transmissions: Dict[int, Message],
        receptions: Dict[int, Message],
        collision_ids: np.ndarray,
    ) -> None:
        self.skip_to(r - 1)
        self.trace.append(
            RoundRecord(
                round_number=r,
                transmissions=transmissions,
                receptions=receptions,
                collisions=frozenset(int(v) for v in collision_ids),
            )
        )

    def skip_to(self, r: int) -> None:
        """Append an empty record for every round after the last one up to ``r``."""
        for rnd in range(self.trace.num_rounds + 1, r + 1):
            self.trace.append(RoundRecord(rnd, {}, {}, frozenset()))

    def summary_round(self, r: int, **kwargs) -> None:
        if not self.per_node:
            kwargs["informed"] = ()
            kwargs["ack_hearers"] = ()
        self.trace.record_summary_round(r, **kwargs)


class _Aggregates:
    """Whole-run summary/none trace aggregates of one instance or a stacked batch.

    Instance ``b`` owns the node range ``[offsets[b], offsets[b+1])`` and
    ``owner`` maps each stacked node to its instance (all zeros for a single
    instance).  Totals live in length-B arrays, each grown by one ``bincount``
    over ``owner`` per round; per-node first-informed / first-ack / last-ack
    rounds in stacked arrays (0 = never; real rounds start at 1), exactly the
    state the incremental trace recorder would have built.  :meth:`trace_for`
    charges the paper's message sizes from those totals: 2 bits per non-µ
    message plus the stamps' bits plus ``fixed_extra`` (READY / ack
    payloads), and the payload once per µ message plus ``payload_extra``.
    """

    def __init__(
        self,
        tasks: Sequence[SimulationTask],
        offsets: Optional[np.ndarray] = None,
        owner: Optional[np.ndarray] = None,
    ) -> None:
        self.tasks = list(tasks)
        self.B = len(self.tasks)
        if offsets is None:
            offsets = np.array([0, self.tasks[0].graph.n], dtype=np.int64)
        total = int(offsets[-1])
        self.offsets = offsets
        self.owner = np.zeros(total, dtype=np.int64) if owner is None else owner
        self.per_node = any(t.trace_level != "none" for t in self.tasks)
        self.tx = np.zeros(self.B, dtype=np.int64)
        self.rx = np.zeros(self.B, dtype=np.int64)
        self.col = np.zeros(self.B, dtype=np.int64)
        self.kinds = np.zeros(self.B * _N_KINDS, dtype=np.int64)
        self.stamp_bits = np.zeros(self.B, dtype=np.int64)
        self.fixed_extra = np.zeros(self.B, dtype=np.int64)
        self.payload_extra = np.zeros(self.B, dtype=np.int64)
        self.first_informed = np.zeros(total, dtype=np.int64)
        self.ack_first = np.zeros(total, dtype=np.int64)
        self.ack_last = np.zeros(total, dtype=np.int64)

    def _counts(self, ids: np.ndarray) -> np.ndarray:
        return np.bincount(self.owner[ids], minlength=self.B)

    def add_channel(self, tx_ids, hears_ids, collision_ids) -> None:
        self.tx += self._counts(tx_ids)
        self.rx += self._counts(hears_ids)
        self.col += self._counts(collision_ids)

    def add_tx(self, tx_ids: np.ndarray, kinds, stamps: Optional[np.ndarray] = None) -> None:
        """Count one round's transmitters by kind: ``kinds`` is one code for
        all of them or an array aligned with ``tx_ids``; ``stamps`` are their
        round stamps, if the messages carry any."""
        if not tx_ids.size:
            return
        owners = self.owner[tx_ids]
        self.kinds += np.bincount(owners * _N_KINDS + kinds, minlength=self.B * _N_KINDS)
        if stamps is not None:
            self.stamp_bits += np.bincount(
                owners, weights=_stamp_bits(stamps), minlength=self.B
            ).astype(np.int64)

    def mark_informed(self, ids: np.ndarray, r: int) -> None:
        if ids.size and self.per_node:
            unset = self.first_informed[ids] == 0
            self.first_informed[ids[unset]] = r

    def mark_acks(self, ids: np.ndarray, r: int) -> None:
        if ids.size and self.per_node:
            unset = self.ack_first[ids] == 0
            self.ack_first[ids[unset]] = r
            self.ack_last[ids] = r

    def kind_count(self, b: int, code: int) -> int:
        return int(self.kinds[b * _N_KINDS + code])

    def trace_for(self, b: int, num_rounds: int) -> ExecutionTrace:
        task = self.tasks[b]
        lo, hi = int(self.offsets[b]), int(self.offsets[b + 1])
        hist = self.kinds[b * _N_KINDS : (b + 1) * _N_KINDS]
        n_src = int(hist[_K_SOURCE])
        maps: Dict[str, _RoundMap] = {}
        if task.trace_level != "none":
            maps = {
                "informed_first": _RoundMap(self.first_informed[lo:hi]),
                "ack_first": _RoundMap(self.ack_first[lo:hi]),
                "ack_last": _RoundMap(self.ack_last[lo:hi]),
            }
        return ExecutionTrace.from_aggregates(
            task.graph.n,
            task.source,
            level=task.trace_level,
            num_rounds=int(num_rounds),
            total_transmissions=int(self.tx[b]),
            total_receptions=int(self.rx[b]),
            total_collisions=int(self.col[b]),
            kind_hist={
                name: int(hist[code]) for code, name in _KIND_NAMES.items() if hist[code]
            },
            fixed_bits=int(self.stamp_bits[b])
            + 2 * (int(self.tx[b]) - n_src)
            + int(self.fixed_extra[b]),
            payload_messages=n_src + int(self.payload_extra[b]),
            **maps,
        )


class _RoundMap:
    """The ``{node: round}`` pairs of a per-node round array (0 = never),
    handed to :meth:`ExecutionTrace.from_aggregates` without building an
    intermediate dict: the trace builds the only copy."""

    def __init__(self, rounds: np.ndarray) -> None:
        self.nodes = np.flatnonzero(rounds)
        self.rounds = rounds[self.nodes]

    def items(self):
        return zip(self.nodes.tolist(), self.rounds.tolist())


def _ack_payload_cost(pay: Any) -> Tuple[int, int]:
    """``(fixed bits, payload messages)`` an ack's payload adds to its size."""
    if pay is None:
        return 0, 0
    if isinstance(pay, int):
        return _int_payload_bits(pay), 0
    return 0, 1


# --------------------------------------------------------------------------- #
# the calendar: rounds with work due
# --------------------------------------------------------------------------- #
class _Calendar:
    """A heap of rounds, each with the entries filed for it grouped by rule.

    Kernels file a candidate (an index array, or any item) under a rule key
    the moment the event that enables it happens; :meth:`pop` hands back the
    earliest round and its entries.  A round nothing was filed for has no
    transmitter, so the kernels never visit it.
    """

    __slots__ = ("_due", "_heap")

    def __init__(self) -> None:
        self._due: Dict[int, Dict[Any, list]] = {}
        self._heap: List[int] = []

    def add(self, r: int, key: Any, item: Any) -> None:
        slot = self._due.get(r)
        if slot is None:
            slot = self._due[r] = {}
            heapq.heappush(self._heap, r)
        items = slot.get(key)
        if items is None:
            slot[key] = [item]
        else:
            items.append(item)

    def add_ids(self, r: int, key: Any, ids: np.ndarray) -> None:
        if ids.size:
            self.add(r, key, ids)

    def next_round(self) -> Optional[int]:
        return self._heap[0] if self._heap else None

    def pop(self) -> Tuple[int, Dict[Any, list]]:
        r = heapq.heappop(self._heap)
        return r, self._due.pop(r)


#: Calendar key of a bare "visit this round" entry (a start or a timer).
_TIMER = -1


def _due(entries: Dict[Any, list], key: Any) -> np.ndarray:
    return _cat(entries.get(key, ()))


def _finish(rec, agg, stop_round: int) -> ExecutionTrace:
    if agg is not None:
        return agg.trace_for(0, stop_round)
    rec.skip_to(stop_round)
    return rec.trace


# --------------------------------------------------------------------------- #
# Algorithm B — plain broadcast
# --------------------------------------------------------------------------- #
def _run_broadcast_kernel(task: SimulationTask, channel=None) -> BackendResult:
    graph, n = task.graph, task.graph.n
    src = task.source
    payload = task.payload
    if channel is None:
        channel = _Channel(graph)
    full = task.trace_level == "full"
    rec = _Recorder(n, src, task.trace_level) if full else None
    agg = None if full else _Aggregates([task])
    x1, x2, _ = _parse_bit_labels(task.labels, n)

    informed = np.zeros(n, dtype=bool)
    informed[src] = True
    informed_count = 1
    last_src = np.full(n, _NEVER, dtype=np.int64)  # round of each node's last µ
    tx_kind = np.zeros(n, dtype=np.int8)  # this round's kinds; 0 between rounds

    # Algorithm 1: the source sends µ in round 1; a node informed in round r
    # sends stay in r+1 (bit x2) and µ in r+2 (bit x1); a node that hears
    # stay in r after sending µ in r-1 sends µ again in r+1.
    cal = _Calendar()
    cal.add(1, _K_SOURCE, np.array([src], dtype=np.int64))

    completion: Optional[int] = None
    stop_round, stop_reason = max(task.max_rounds, 0), "budget"

    while True:
        r = cal.next_round()
        if r is None or r > task.max_rounds:
            break
        r, due = cal.pop()
        src_ids = _due(due, _K_SOURCE)
        stay_ids = _due(due, _K_STAY)
        tx_kind[src_ids] = _K_SOURCE
        tx_kind[stay_ids] = _K_STAY
        tx_ids, hears_ids, senders, collision_ids = channel.resolve_ids(
            _cat([a for a in (src_ids, stay_ids) if a.size])
        )

        mu_hearers = hears_ids
        if hears_ids.size:
            if stay_ids.size:
                sender_is_stay = tx_kind[senders] == _K_STAY
                stay_hearers = hears_ids[sender_is_stay]
                mu_hearers = hears_ids[~sender_is_stay]
                cal.add_ids(
                    r + 1, _K_SOURCE, stay_hearers[last_src[stay_hearers] == r - 1]
                )
            new_ids = mu_hearers[~informed[mu_hearers]]
            if new_ids.size:
                informed[new_ids] = True
                informed_count += new_ids.size
                cal.add_ids(r + 1, _K_STAY, new_ids[x2[new_ids]])
                cal.add_ids(r + 2, _K_SOURCE, new_ids[x1[new_ids]])

        if full:
            src_msg, stay_msg = source_message(payload), stay_message()
            transmissions = {
                int(u): (src_msg if tx_kind[u] == _K_SOURCE else stay_msg)
                for u in tx_ids
            }
            receptions = {
                int(v): transmissions[int(u)] for v, u in zip(hears_ids, senders)
            }
            rec.full_round(r, transmissions, receptions, collision_ids)
        else:
            agg.add_channel(tx_ids, hears_ids, collision_ids)
            agg.add_tx(src_ids, _K_SOURCE)
            agg.add_tx(stay_ids, _K_STAY)
            agg.mark_informed(mu_hearers, r)
        tx_kind[tx_ids] = _K_NONE
        last_src[src_ids] = r

        if completion is None and informed_count == n:
            completion = r
        if task.stop_rule == "all_informed" and informed_count == n:
            stop_round, stop_reason = r, "condition"
            break

    sim = SimulationResult(
        trace=_finish(rec, agg, stop_round),
        nodes=[],
        stop_round=stop_round,
        stop_reason=stop_reason,
    )
    return BackendResult(simulation=sim, derived={"completion_round": completion})


# --------------------------------------------------------------------------- #
# Algorithm B_ack — acknowledged broadcast
# --------------------------------------------------------------------------- #
# Calendar keys of B_ack's rules (Algorithm 2's line numbers in comments).
_ACK_MU = 0  # lines 12-16: informed at r-2 with x1 sends (µ, stamp + 2)
_ACK_START = 1  # lines 17-22: informed at r-1 with x3 starts the ack
_ACK_STAY = 2  # lines 17-22: informed at r-1 with x2 (not x3) sends stay
_ACK_RESEND = 3  # lines 23-27: heard stay at r-1 after sending µ at r-2
_ACK_RELAY = 4  # lines 28-31: heard an ack at r-1 (the chain walks back)


def _run_acknowledged_kernel(task: SimulationTask) -> BackendResult:
    graph, n = task.graph, task.graph.n
    src = task.source
    payload = task.payload
    channel = _Channel(graph)
    full = task.trace_level == "full"
    rec = _Recorder(n, src, task.trace_level) if full else None
    agg = None if full else _Aggregates([task])
    x1, x2, x3 = _parse_bit_labels(task.labels, n)
    x2_only = x2 & ~x3

    informed = np.zeros(n, dtype=bool)
    informed[src] = True
    informed_count = 1
    informed_r = np.full(n, _NEVER, dtype=np.int64)
    informed_stamp = np.zeros(n, dtype=np.int64)
    last_src = np.full(n, _NEVER, dtype=np.int64)  # round of each node's last µ
    heard_stay_stamp = np.zeros(n, dtype=np.int64)
    tx_kind = np.zeros(n, dtype=np.int8)  # this round's kinds; 0 between rounds
    tx_stamp = np.zeros(n, dtype=np.int64)
    transmit_stamps: Dict[int, Set[int]] = {}

    cal = _Calendar()
    cal.add(1, _TIMER, None)  # lines 4-5: the source transmits (µ, 1)

    first_ack_round: Optional[int] = None
    completion: Optional[int] = None
    stop_round, stop_reason = max(task.max_rounds, 0), "budget"

    while True:
        r = cal.next_round()
        if r is None or r > task.max_rounds:
            break
        r, due = cal.pop()

        # Algorithm 2, branch for branch.  The first four rules' candidates
        # are disjoint (informed at r-2, informed at r-1, heard stay at r-1);
        # the relay rule yields to all of them.
        parts: List[np.ndarray] = []
        src_parts: List[np.ndarray] = []
        if r == 1:
            tx_kind[src] = _K_SOURCE
            tx_stamp[src] = 1
            src_parts.append(np.array([src], dtype=np.int64))
        ids = _due(due, _ACK_MU)
        if ids.size:
            stamps = informed_stamp[ids] + 2
            tx_kind[ids] = _K_SOURCE
            tx_stamp[ids] = stamps
            for v, s in zip(ids.tolist(), stamps.tolist()):
                transmit_stamps.setdefault(v, set()).add(s)
            src_parts.append(ids)
        ids = _due(due, _ACK_START)
        if ids.size:
            tx_kind[ids] = _K_ACK
            tx_stamp[ids] = informed_stamp[ids]
            parts.append(ids)
        ids = _due(due, _ACK_STAY)
        if ids.size:
            tx_kind[ids] = _K_STAY
            tx_stamp[ids] = informed_stamp[ids] + 1
            parts.append(ids)
        ids = _due(due, _ACK_RESEND)
        if ids.size:
            stamps = heard_stay_stamp[ids] + 1
            tx_kind[ids] = _K_SOURCE
            tx_stamp[ids] = stamps
            for v, s in zip(ids.tolist(), stamps.tolist()):
                if v != src:
                    transmit_stamps.setdefault(v, set()).add(s)
            src_parts.append(ids)
        relays: List[int] = []
        for hearers, heard in due.get(_ACK_RELAY, ()):
            for v, heard_stamp in zip(hearers.tolist(), heard.tolist()):
                if v == src or not informed[v]:
                    continue
                ir = informed_r[v]
                # A node that heard an ack at r-1 heard no stay then, so
                # only the informed-at-r-2 exclusion and priority remain.
                if ir == r - 2 or ir == r - 1 or tx_kind[v]:
                    continue
                if heard_stamp in transmit_stamps.get(v, ()):
                    tx_kind[v] = _K_ACK
                    tx_stamp[v] = informed_stamp[v]
                    relays.append(v)
        if relays:
            parts.append(np.array(relays, dtype=np.int64))
        src_ids = _cat(src_parts)

        # Channel.
        tx_ids, hears_ids, senders, collision_ids = channel.resolve_ids(
            _cat([a for a in (src_ids, *parts) if a.size])
        )

        # Deliver.
        mu_hearers = _EMPTY
        ack_hearers = _EMPTY
        if hears_ids.size:
            heard_kind = tx_kind[senders]
            heard_stamp = tx_stamp[senders]
            mu_sel = heard_kind == _K_SOURCE
            mu_hearers = hears_ids[mu_sel]
            new_sel = mu_sel & ~informed[hears_ids]
            new_ids = hears_ids[new_sel]
            if new_ids.size:
                informed[new_ids] = True
                informed_r[new_ids] = r
                informed_stamp[new_ids] = heard_stamp[new_sel]
                informed_count += new_ids.size
                cal.add_ids(r + 2, _ACK_MU, new_ids[x1[new_ids]])
                cal.add_ids(r + 1, _ACK_START, new_ids[x3[new_ids]])
                cal.add_ids(r + 1, _ACK_STAY, new_ids[x2_only[new_ids]])
            stay_sel = heard_kind == _K_STAY
            if stay_sel.any():
                stay_hearers = hears_ids[stay_sel]
                heard_stay_stamp[stay_hearers] = heard_stamp[stay_sel]
                cal.add_ids(
                    r + 1, _ACK_RESEND, stay_hearers[last_src[stay_hearers] == r - 1]
                )
            ack_sel = heard_kind == _K_ACK
            if ack_sel.any():
                ack_hearers = hears_ids[ack_sel]
                cal.add(r + 1, _ACK_RELAY, (ack_hearers, heard_stamp[ack_sel]))
                if first_ack_round is None and np.any(ack_hearers == src):
                    first_ack_round = r

        # Record.
        if full:
            transmissions: Dict[int, Message] = {}
            for u in tx_ids.tolist():
                stamp = int(tx_stamp[u])
                if tx_kind[u] == _K_SOURCE:
                    transmissions[u] = source_message(payload, round_stamp=stamp)
                elif tx_kind[u] == _K_STAY:
                    transmissions[u] = stay_message(round_stamp=stamp)
                else:
                    transmissions[u] = ack_message(stamp)
            receptions = {
                int(v): transmissions[int(u)] for v, u in zip(hears_ids, senders)
            }
            rec.full_round(r, transmissions, receptions, collision_ids)
        else:
            agg.add_channel(tx_ids, hears_ids, collision_ids)
            agg.add_tx(tx_ids, tx_kind[tx_ids], tx_stamp[tx_ids])
            agg.mark_informed(mu_hearers, r)
            agg.mark_acks(ack_hearers, r)
        tx_kind[tx_ids] = _K_NONE
        last_src[src_ids] = r

        if completion is None and informed_count == n:
            completion = r
        if task.stop_rule == "acknowledged" and first_ack_round is not None:
            stop_round, stop_reason = r, "condition"
            break
        if task.stop_rule == "all_informed" and informed_count == n:
            stop_round, stop_reason = r, "condition"
            break

    sim = SimulationResult(
        trace=_finish(rec, agg, stop_round),
        nodes=[],
        stop_round=stop_round,
        stop_reason=stop_reason,
    )
    derived = {
        "completion_round": completion,
        "acknowledgement_round": first_ack_round,
    }
    return BackendResult(simulation=sim, derived=derived)


# --------------------------------------------------------------------------- #
# Algorithm B_arb — arbitrary-source broadcast
# --------------------------------------------------------------------------- #
# Calendar keys of B_arb's rules; keys 0-2 and 4-6 are per phase k
# (0 = initialize, 1 = ready, 2 = source).
_ARB_MU = 0  # + k: informed in phase k at r-2 with x1 relays the phase message
_ARB_ACK = 3  # informed in phase 0 at r-1 with x3 starts the phase-1 ack
_ARB_STAY = 4  # + k: informed in phase k at r-1 with x2 sends stay
_ARB_RESEND = 7  # heard stay at r-1 after sending a phase message at r-2
_ARB_RELAY = 8  # heard an ack at r-1


def _run_arbitrary_kernel(task: SimulationTask) -> BackendResult:
    graph, n = task.graph, task.graph.n
    src = task.source  # the node actually holding µ (the paper's s_G)
    payload = task.payload
    channel = _Channel(graph)
    full = task.trace_level == "full"
    rec = _Recorder(n, src, task.trace_level) if full else None
    agg = None if full else _Aggregates([task])
    x1, x2, x3 = _parse_bit_labels(task.labels, n)

    coordinator = task.extras.get("coordinator")
    if coordinator is None:
        matches = [v for v in range(n) if task.labels[v] == "111"]
        if not matches:
            raise BackendError("λ_arb labeling has no coordinator label '111'")
        coordinator = matches[0]
    c = int(coordinator)

    # Per-phase state: 0 = initialize, 1 = ready, 2 = source.
    ph_inf = np.full((3, n), _NEVER, dtype=np.int64)
    ph_stamp = np.zeros((3, n), dtype=np.int64)
    transmit_stamps: Tuple[Dict[int, Set[int]], ...] = ({}, {}, {})
    t_v = np.full(n, -1, dtype=np.int64)
    t_v[c] = 0
    T_arr = np.full(n, -1, dtype=np.int64)
    known = np.zeros(n, dtype=bool)
    known_count = 0
    completion_known = np.zeros(n, dtype=np.int64)

    last_kind = np.zeros(n, dtype=np.int8)  # kind and round of each node's
    last_tx_r = np.full(n, _NEVER, dtype=np.int64)  # latest transmission
    heard_stay_stamp = np.zeros(n, dtype=np.int64)
    tx_kind = np.zeros(n, dtype=np.int8)  # this round's kinds; 0 between rounds
    tx_stamp = np.zeros(n, dtype=np.int64)

    # Coordinator / actual-source scheduling state.
    T_c: Optional[int] = None
    sched_ready: Optional[int] = None
    sched_source: Optional[int] = None
    ready_sent: Optional[int] = None
    learned_payload: Any = payload if c == src else None
    sched_src_ack: Optional[int] = None
    coord_ack_first: Optional[int] = None
    coord_ack_last: Optional[int] = None

    cal = _Calendar()
    cal.add(1, _TIMER, None)  # the coordinator's initialize

    stop_round, stop_reason = max(task.max_rounds, 0), "budget"

    while True:
        r = cal.next_round()
        if r is None or r > task.max_rounds:
            break
        r, due = cal.pop()
        parts: List[np.ndarray] = []
        ack_payloads: Dict[int, Any] = {}

        # Coordinator phase starts (checked first, as in the object protocol;
        # its local clock starts at 1, so the global stamp is just r).
        coord_kind = _K_NONE
        if r == 1:
            coord_kind = _K_INIT
        elif sched_ready == r and T_c is not None:
            ready_sent = r
            if c == src:
                sched_source = r + T_c + 1
                cal.add(sched_source, _TIMER, None)
            coord_kind = _K_READY
        elif sched_source == r and learned_payload is not None:
            if not known[c]:
                known[c] = True
                known_count += 1
            completion_known[c] = r + (T_c or 0) - 1
            coord_kind = _K_SOURCE
        if coord_kind:
            tx_kind[c] = coord_kind
            tx_stamp[c] = r
            parts.append(np.array([c], dtype=np.int64))

        # The actual source starts the phase-2 acknowledgement after its timer.
        if sched_src_ack == r and not tx_kind[src]:
            tx_kind[src] = _K_ACK
            tx_stamp[src] = ph_stamp[1][src]
            ack_payloads[src] = payload
            parts.append(np.array([src], dtype=np.int64))

        # Shared B_ack rules, per phase, in phase order; each rule takes only
        # the candidates no earlier rule decided.
        for k in range(3):
            stamp_k = ph_stamp[k]
            ids = _due(due, _ARB_MU + k)
            if ids.size:
                ids = ids[tx_kind[ids] == _K_NONE]
                stamps = stamp_k[ids] + 2
                tx_kind[ids] = _K_INIT + k
                tx_stamp[ids] = stamps
                for v, s in zip(ids.tolist(), stamps.tolist()):
                    transmit_stamps[k].setdefault(v, set()).add(s)
                parts.append(ids)
            if k == 0:  # z starts the phase-1 ack, appending T = t_z
                ids = _due(due, _ARB_ACK)
                if ids.size:
                    ids = ids[tx_kind[ids] == _K_NONE]
                    tx_kind[ids] = _K_ACK
                    tx_stamp[ids] = stamp_k[ids]
                    for v, s in zip(ids.tolist(), stamp_k[ids].tolist()):
                        ack_payloads[v] = s
                    parts.append(ids)
            ids = _due(due, _ARB_STAY + k)
            if ids.size:
                ids = ids[tx_kind[ids] == _K_NONE]
                tx_kind[ids] = _K_STAY
                tx_stamp[ids] = stamp_k[ids] + 1
                parts.append(ids)

        # Stay-triggered retransmission (any phase, coordinator included).
        ids = _due(due, _ARB_RESEND)
        if ids.size:
            ids = ids[tx_kind[ids] == _K_NONE]
            kinds = last_kind[ids]
            stamps = heard_stay_stamp[ids] + 1
            tx_kind[ids] = kinds
            tx_stamp[ids] = stamps
            for v, kind, s in zip(ids.tolist(), kinds.tolist(), stamps.tolist()):
                if v != c:
                    transmit_stamps[kind - _K_INIT].setdefault(v, set()).add(s)
            parts.append(ids)

        # Ack relaying (sparse: the chain walks back one hop per round).
        relays: List[int] = []
        for v, heard_stamp, ack_pay in due.get(_ARB_RELAY, ()):
            if v == c or tx_kind[v]:
                continue
            for k in range(3):
                stamps_v = transmit_stamps[k].get(v)
                if stamps_v and heard_stamp in stamps_v:
                    tx_kind[v] = _K_ACK
                    tx_stamp[v] = ph_stamp[k][v]
                    ack_payloads[v] = ack_pay
                    relays.append(v)
                    break
        if relays:
            parts.append(np.array(relays, dtype=np.int64))

        # Channel.
        tx_ids, hears_ids, senders, collision_ids = channel.resolve_ids(
            _cat([a for a in parts if a.size])
        )

        # Deliver.
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
                keep = (vs != c) & (ph_inf[k][vs] == _NEVER)
                vs, sts = vs[keep], sts[keep]
                if vs.size == 0:
                    continue
                ph_inf[k][vs] = r
                ph_stamp[k][vs] = sts
                cal.add_ids(r + 2, _ARB_MU + k, vs[x1[vs]])
                if k == 0:
                    cal.add_ids(r + 1, _ARB_ACK, vs[x3[vs]])
                cal.add_ids(r + 1, _ARB_STAY + k, vs[x2[vs]])
                if k == 0:
                    t_v[vs] = sts
                elif k == 1:
                    T_arr[vs] = T_c if T_c is not None else 0
                    if np.any(vs == src):
                        sched_src_ack = r + int(T_arr[src]) + 1
                        cal.add(sched_src_ack, _TIMER, None)
                else:
                    ready_t = (T_arr[vs] >= 0) & (t_v[vs] >= 0)
                    done = vs[ready_t]
                    known[done] = True
                    known_count += done.size
                    completion_known[done] = r + T_arr[done] - t_v[done]
            mu_hearers = hears_ids[heard_kind == _K_SOURCE]
            stay_sel = heard_kind == _K_STAY
            if stay_sel.any():
                stay_hearers = hears_ids[stay_sel]
                heard_stay_stamp[stay_hearers] = heard_stamp[stay_sel]
                sent = last_kind[stay_hearers]
                resend = (
                    (last_tx_r[stay_hearers] == r - 1)
                    & (sent >= _K_INIT)
                    & (sent <= _K_SOURCE)
                )
                cal.add_ids(r + 1, _ARB_RESEND, stay_hearers[resend])
            ack_sel = heard_kind == _K_ACK
            ack_hearers = hears_ids[ack_sel]
            for v, s, u in zip(
                ack_hearers.tolist(),
                heard_stamp[ack_sel].tolist(),
                senders[ack_sel].tolist(),
            ):
                pay = ack_payloads.get(u)
                cal.add(r + 1, _ARB_RELAY, (v, s, pay))
                if v == c:
                    coord_ack_last = r
                    if coord_ack_first is None:
                        coord_ack_first = r
                    if T_c is None:
                        T_c = int(pay) if pay is not None else 0
                        sched_ready = r + T_c + 1
                        cal.add(sched_ready, _TIMER, None)
                    elif (
                        ready_sent is not None
                        and r > ready_sent
                        and sched_source is None
                    ):
                        learned_payload = pay
                        sched_source = r + T_c + 1
                        cal.add(sched_source, _TIMER, None)

        # Record.
        if full:
            transmissions: Dict[int, Message] = {}
            for u in tx_ids.tolist():
                kind = int(tx_kind[u])
                stamp = int(tx_stamp[u])
                if kind == _K_INIT:
                    transmissions[u] = initialize_message(round_stamp=stamp)
                elif kind == _K_READY:
                    transmissions[u] = ready_message(int(T_c or 0), round_stamp=stamp)
                elif kind == _K_SOURCE:
                    # Phase 3 relays what the coordinator learned from the
                    # phase-2 ack (µ itself, unless the labels are not λ_arb's).
                    transmissions[u] = source_message(learned_payload, round_stamp=stamp)
                elif kind == _K_STAY:
                    transmissions[u] = stay_message(round_stamp=stamp)
                else:
                    transmissions[u] = ack_message(stamp, payload=ack_payloads.get(u))
            receptions = {
                int(v): transmissions[int(u)] for v, u in zip(hears_ids, senders)
            }
            rec.full_round(r, transmissions, receptions, collision_ids)
        else:
            agg.add_channel(tx_ids, hears_ids, collision_ids)
            agg.add_tx(tx_ids, tx_kind[tx_ids], tx_stamp[tx_ids])
            for pay in ack_payloads.values():
                bits, msgs = _ack_payload_cost(pay)
                agg.fixed_extra[0] += bits
                agg.payload_extra[0] += msgs
            agg.mark_informed(mu_hearers, r)
            agg.mark_acks(ack_hearers, r)
        last_kind[tx_ids] = tx_kind[tx_ids]
        last_tx_r[tx_ids] = r
        tx_kind[tx_ids] = _K_NONE

        if task.stop_rule == "arb_complete" and known_count == n:
            stop_round, stop_reason = r, "condition"
            break

    # Derived outcomes, mirroring the reference derivation in core.runner.
    others = np.ones(n, dtype=bool)
    others[[src, c]] = False
    receipts = ph_inf[2][others]
    coordinator_learned_round = coord_ack_last if c != src else None
    completion: Optional[int] = None
    if not (receipts == _NEVER).any() and (learned_payload is not None or c == src):
        candidates = receipts.tolist()
        if coordinator_learned_round is not None:
            candidates.append(coordinator_learned_round)
        completion = max(candidates) if candidates else 1
    common: Optional[int] = None
    if known_count == n and n > 0:
        values = np.unique(completion_known)
        if values.size == 1:
            common = int(values[0])

    if agg is not None:
        n_ready = agg.kind_count(0, _K_READY)
        if n_ready:
            # T is fixed from the moment the first READY exists.
            agg.fixed_extra[0] += n_ready * _int_payload_bits(T_c or 0)
    sim = SimulationResult(
        trace=_finish(rec, agg, stop_round),
        nodes=[],
        stop_round=stop_round,
        stop_reason=stop_reason,
    )
    derived = {
        "completion_round": completion,
        "acknowledgement_round": coord_ack_first,
        "common_completion_round": common,
        "coordinator": c,
    }
    return BackendResult(simulation=sim, derived=derived)


# --------------------------------------------------------------------------- #
# Source-flood baselines: round-robin / TDMA slots and centralized schedules
# --------------------------------------------------------------------------- #
class _SlotCalendar:
    """Round-robin / TDMA: node v may send in the rounds r ≡ slot (mod period).

    Nodes sharing a (period, residue) pair form one bucket.  A bucket goes
    on the heap, due at its next slot, once any of its nodes is informed,
    and moves one period on each time its slot comes; in that round its
    informed nodes transmit.  The heap holds one entry per live bucket, so
    a quiet round costs nothing and memory stays O(buckets).
    """

    def __init__(self, labels, n: int) -> None:
        slots, periods = _parse_slot_labels(labels, n)
        top = int(periods.max())
        keys, self.bucket_of = np.unique(
            periods * top + slots % periods, return_inverse=True
        )
        self.period = (keys // top).tolist()
        self.residue = (keys % top).tolist()
        self.members = np.argsort(self.bucket_of, kind="stable")
        self.bounds = np.searchsorted(
            self.bucket_of[self.members], np.arange(keys.size + 1)
        ).tolist()
        self.live = np.zeros(keys.size, dtype=bool)
        self._heap: List[Tuple[int, int]] = []

    def informed(self, ids: np.ndarray, r: int) -> None:
        """Put the buckets of nodes first informed in round ``r`` on the heap."""
        buckets = self.bucket_of[ids]
        for k in set(buckets[~self.live[buckets]].tolist()):
            self.live[k] = True
            p, res = self.period[k], self.residue[k]
            heapq.heappush(self._heap, (r + 1 + (res - (r + 1)) % p, k))

    def next_round(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Tuple[int, List[int]]:
        r, k = heapq.heappop(self._heap)
        due = [k]
        while self._heap and self._heap[0][0] == r:
            due.append(heapq.heappop(self._heap)[1])
        return r, due

    def transmitters(self, r: int, due: List[int], informed: np.ndarray) -> np.ndarray:
        ids = _cat([self.members[self.bounds[k] : self.bounds[k + 1]] for k in due])
        for k in due:
            heapq.heappush(self._heap, (r + self.period[k], k))
        return ids[informed[ids]]


class _ScheduleCalendar:
    """Centralized schedule: round r's listed nodes transmit once informed."""

    def __init__(self, schedule) -> None:
        self.rounds = [
            (r, np.unique(np.asarray(round_ids, dtype=np.int64)))
            for r, round_ids in enumerate(schedule, start=1)
            if len(round_ids)
        ]
        self.pos = 0

    def informed(self, ids: np.ndarray, r: int) -> None:
        pass

    def next_round(self) -> Optional[int]:
        return self.rounds[self.pos][0] if self.pos < len(self.rounds) else None

    def pop(self) -> Tuple[int, np.ndarray]:
        self.pos += 1
        return self.rounds[self.pos - 1]

    def transmitters(self, r: int, due: np.ndarray, informed: np.ndarray) -> np.ndarray:
        return due[informed[due]]


def _run_source_flood(task: SimulationTask, cal, channel=None) -> BackendResult:
    """Shared loop for baselines that only ever retransmit µ.

    ``cal`` (a :class:`_SlotCalendar` or :class:`_ScheduleCalendar`) says
    which rounds have candidates and which of them transmit; everything else
    — channel resolution, first-receipt bookkeeping, trace recording, the
    ``all_informed`` stop rule — is identical across the slotted and
    scheduled baselines.  ``channel`` lets a caller substitute a drop-in
    replacement for the CSR :class:`_Channel` (the ELL tier injects its
    padded-layout channel here so equivalence with this loop holds by
    construction).
    """
    graph, n = task.graph, task.graph.n
    src = task.source
    payload = task.payload
    if channel is None:
        channel = _Channel(graph)
    full = task.trace_level == "full"
    rec = _Recorder(n, src, task.trace_level) if full else None
    agg = None if full else _Aggregates([task])

    informed = np.zeros(n, dtype=bool)
    informed[src] = True
    informed_count = 1
    cal.informed(np.array([src], dtype=np.int64), 0)
    completion: Optional[int] = None
    stop_round, stop_reason = max(task.max_rounds, 0), "budget"

    r = 0
    while True:
        # Round 1 is always visited, filed or not: with n == 1 the stop rule
        # holds before anyone transmits, and round 1 is where it is checked.
        nxt = cal.next_round()
        if r == 0 and nxt != 1:
            nxt = 1
        if nxt is None or nxt > task.max_rounds:
            break
        if nxt == cal.next_round():
            r, due = cal.pop()
            tx = cal.transmitters(r, due, informed)
        else:
            r, tx = nxt, _EMPTY
        tx_ids, hears_ids, senders, collision_ids = channel.resolve_ids(tx)
        if hears_ids.size:
            new_ids = hears_ids[~informed[hears_ids]]
            if new_ids.size:
                informed[new_ids] = True
                informed_count += new_ids.size
                cal.informed(new_ids, r)
        if full:
            msg = source_message(payload)
            transmissions = {int(u): msg for u in tx_ids}
            receptions = {int(v): msg for v in hears_ids}
            rec.full_round(r, transmissions, receptions, collision_ids)
        else:
            agg.add_channel(tx_ids, hears_ids, collision_ids)
            agg.add_tx(tx_ids, _K_SOURCE)
            agg.mark_informed(hears_ids, r)
        if completion is None and informed_count == n:
            completion = r
        if task.stop_rule == "all_informed" and informed_count == n:
            stop_round, stop_reason = r, "condition"
            break

    sim = SimulationResult(
        trace=_finish(rec, agg, stop_round),
        nodes=[],
        stop_round=stop_round,
        stop_reason=stop_reason,
    )
    return BackendResult(simulation=sim, derived={"completion_round": completion})


def _run_slotted_kernel(task: SimulationTask, channel=None) -> BackendResult:
    """Round-robin / G²-colouring TDMA: informed node of slot s transmits at r ≡ s."""
    return _run_source_flood(
        task, _SlotCalendar(task.labels, task.graph.n), channel=channel
    )


def _run_collision_detection_kernel(task: SimulationTask) -> BackendResult:
    """Anonymous bit-signalling broadcast as an array kernel.

    The kernel lives in the batched engine (it is the batch-of-one view of
    :func:`repro.backends.batched.run_collision_detection_batch`); the lazy
    import avoids a module cycle (batched builds on this module's channel and
    recorder plumbing).
    """
    from .batched import run_collision_detection_batch

    return run_collision_detection_batch([task])[0]


def _run_centralized_kernel(task: SimulationTask) -> BackendResult:
    """Centralized schedule: round ``r``'s precomputed transmitter set, once informed.

    The schedule arrives as declarative data in ``task.extras["schedule"]``
    (one node-id list per round), mirroring
    :class:`~repro.baselines.centralized.ScheduledNode`, which transmits in
    its scheduled rounds provided it already knows µ.
    """
    return _run_source_flood(
        task, _ScheduleCalendar(task.extras.get("schedule", ()))
    )


# --------------------------------------------------------------------------- #
# the backend
# --------------------------------------------------------------------------- #
class VectorizedBackend(SimulationBackend):
    """NumPy CSR kernels for the labeled protocols and TDMA baselines.

    Parameters
    ----------
    strict:
        If true, raise :class:`~repro.backends.base.BackendError` on tasks the
        kernels cannot execute instead of silently delegating them to the
        reference backend.
    """

    name = "vectorized"

    # Plain dict of module-level functions; looked up by key, never as a
    # class attribute, so no bound-method descriptor protocol applies.
    _KERNELS = {
        "broadcast": _run_broadcast_kernel,
        "acknowledged": _run_acknowledged_kernel,
        "arbitrary": _run_arbitrary_kernel,
        "round_robin": _run_slotted_kernel,
        "coloring_tdma": _run_slotted_kernel,
        "centralized": _run_centralized_kernel,
        "collision_detection": _run_collision_detection_kernel,
    }

    def __init__(self, *, strict: bool = False) -> None:
        self.strict = strict
        self._fallback = ReferenceBackend()

    def supports(self, task: SimulationTask) -> bool:
        """True if a compiled kernel covers ``task`` under default channel models."""
        if task.protocol not in self._KERNELS:
            return False
        if task.source is None or task.graph.n == 0:
            return False
        if task.protocol == "centralized" and "schedule" not in task.extras:
            # A centralized task without declarative schedule data can only be
            # executed through its node objects.
            return False
        if task.collision_model is not None and type(task.collision_model) is not NoCollisionDetection:
            # The bit-signalling kernel natively implements the detection
            # channel (energy = message or collision); everything else is
            # compiled for the paper's default model only.
            if not (
                task.protocol == "collision_detection"
                and type(task.collision_model) is WithCollisionDetection
            ):
                return False
        if task.fault_model is not None and type(task.fault_model) is not NoFaults:
            return False
        if task.clock_model is not None and type(task.clock_model) is not SynchronizedClocks:
            return False
        return True

    def run_task(self, task: SimulationTask) -> BackendResult:
        if not self.supports(task):
            if self.strict:
                raise BackendError(
                    f"vectorized backend has no kernel for protocol "
                    f"{task.protocol!r} with the given channel models"
                )
            # The fallback result keeps its own provenance tag ("reference").
            return self._fallback.run_task(task)
        result = self._KERNELS[task.protocol](task)
        result.backend = self.name
        return result
