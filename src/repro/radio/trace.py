"""Execution traces: the round-by-round record of a simulation.

Everything downstream of the simulator — metrics, bound verification, the
Lemma 2.8 characterisation checks, the Figure 1 renderer — operates on an
:class:`ExecutionTrace` rather than poking into node objects.  A trace is a
pure value: it can be compared, serialised and replayed.

Traces support three recording levels (:data:`TRACE_LEVELS`):

* ``"full"``    — keep every :class:`RoundRecord` (the historical behaviour,
  and the default).  Memory grows with rounds × activity.
* ``"summary"`` — keep only O(n) incremental aggregates: totals, per-node
  first-informed / first-ack rounds, the completion round.  All the headline
  accessors (:meth:`ExecutionTrace.broadcast_completion_round`,
  :meth:`ExecutionTrace.first_ack_at`, :meth:`ExecutionTrace.total_transmissions`,
  …) keep working; per-round record access raises :class:`TraceLevelError`.
* ``"none"``    — like ``"summary"``; reserved for backends that skip even
  per-round trace interaction on their hot path.

The aggregates are maintained incrementally at *every* level, so the summary
accessors are O(1) even on full traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .messages import Message, message_size_bits

__all__ = [
    "RoundRecord",
    "ExecutionTrace",
    "TraceLevelError",
    "TRACE_NONE",
    "TRACE_SUMMARY",
    "TRACE_FULL",
    "TRACE_LEVELS",
]

#: Recording levels, cheapest first.
TRACE_NONE = "none"
TRACE_SUMMARY = "summary"
TRACE_FULL = "full"
TRACE_LEVELS = (TRACE_NONE, TRACE_SUMMARY, TRACE_FULL)


class TraceLevelError(ValueError):
    """Raised when per-round record access is attempted on a summary trace."""


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one global round.

    Attributes
    ----------
    round_number:
        Global (source-local) round number, starting at 1.
    transmissions:
        Mapping transmitter node → message it put on the channel.  Includes
        only transmissions that survived fault injection.
    receptions:
        Mapping listener node → message it actually heard (exactly one
        transmitting neighbour).
    collisions:
        Set of listening nodes with two or more transmitting neighbours.
    suppressed:
        Transmissions decided by nodes but dropped by the fault model, mapping
        node → message (empty with :class:`~repro.radio.faults.NoFaults`).
    """

    round_number: int
    transmissions: Mapping[int, Message]
    receptions: Mapping[int, Message]
    collisions: FrozenSet[int]
    suppressed: Mapping[int, Message] = field(default_factory=dict)

    @property
    def num_transmitters(self) -> int:
        """Number of nodes that transmitted this round."""
        return len(self.transmissions)

    @property
    def num_receivers(self) -> int:
        """Number of nodes that heard a message this round."""
        return len(self.receptions)

    @property
    def is_silent(self) -> bool:
        """True if nobody transmitted this round."""
        return not self.transmissions


def _carries_payload_bits(message: Message) -> bool:
    """True if ``message``'s size includes the source payload bit count.

    Mirrors the accounting of :func:`~repro.radio.messages.message_size_bits`:
    source messages always carry µ; ack/ready messages carry it only when
    their payload is a non-integer (integers are charged their own bit width).
    """
    if message.is_source:
        return True
    if message.is_ready or (message.is_ack and message.payload is not None):
        return not isinstance(message.payload, int)
    return False


class ExecutionTrace:
    """Round records (optional) plus incrementally maintained aggregates.

    Equality compares the identity fields, the retained records *and* the
    incremental aggregates, so two summary traces are equal exactly when they
    describe the same aggregate execution (full traces additionally compare
    record by record).
    """

    def __init__(
        self,
        num_nodes: int,
        source: Optional[int],
        rounds: Optional[Sequence[RoundRecord]] = None,
        metadata: Optional[Dict[str, Any]] = None,
        level: str = TRACE_FULL,
    ) -> None:
        if level not in TRACE_LEVELS:
            raise ValueError(f"unknown trace level {level!r}; expected one of {TRACE_LEVELS}")
        self.num_nodes = num_nodes
        self.source = source
        self.metadata: Dict[str, Any] = dict(metadata) if metadata else {}
        self.level = level
        self._records: List[RoundRecord] = []
        # Incremental aggregates (maintained at every level).
        self._num_rounds = 0
        self._total_tx = 0
        self._total_rx = 0
        self._total_collisions = 0
        self._kind_hist: Dict[str, int] = {}
        self._fixed_bits = 0
        self._payload_messages = 0
        self._informed_first: Dict[int, int] = {}
        self._ack_first: Dict[int, int] = {}
        self._ack_last: Dict[int, int] = {}
        self._pending: Set[int] = set()
        self._completion_round: Optional[int] = None
        if source is not None:
            self._pending.update(v for v in range(num_nodes) if v != source)
        for record in rounds or ():
            self.append(record)

    def _identity(self):
        return (
            self.num_nodes,
            self.source,
            self.level,
            self.metadata,
            self._records,
            self._num_rounds,
            self._total_tx,
            self._total_rx,
            self._total_collisions,
            self._kind_hist,
            self._fixed_bits,
            self._payload_messages,
            self._informed_first,
            self._ack_first,
            self._ack_last,
            self._completion_round,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExecutionTrace):
            return NotImplemented
        return self._identity() == other._identity()

    def __repr__(self) -> str:
        return (
            f"ExecutionTrace(num_nodes={self.num_nodes}, source={self.source}, "
            f"level={self.level!r}, rounds={self._num_rounds})"
        )

    @property
    def rounds(self) -> List[RoundRecord]:
        """The retained :class:`RoundRecord` list (full traces only).

        Raising here (rather than returning an empty list) keeps direct
        consumers — renderers, verifiers, per-round metrics — from silently
        processing nothing when handed a summary trace.
        """
        self._require_full("accessing trace.rounds")
        return self._records

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def append(self, record: RoundRecord) -> None:
        """Append the next round's record (round numbers must be consecutive)."""
        expected = self._num_rounds + 1
        if record.round_number != expected:
            raise ValueError(
                f"expected round {expected}, got record for round {record.round_number}"
            )
        self._num_rounds = expected
        self._ingest(record)
        if self.level == TRACE_FULL:
            self._records.append(record)

    def _ingest(self, record: RoundRecord) -> None:
        rnd = record.round_number
        self._total_tx += len(record.transmissions)
        self._total_rx += len(record.receptions)
        self._total_collisions += len(record.collisions)
        for msg in record.transmissions.values():
            self._kind_hist[msg.kind] = self._kind_hist.get(msg.kind, 0) + 1
            self._fixed_bits += message_size_bits(msg, source_payload_bits=0)
            if _carries_payload_bits(msg):
                self._payload_messages += 1
        for node, msg in record.receptions.items():
            if msg.is_source:
                self._informed_first.setdefault(node, rnd)
                self._pending.discard(node)
            elif msg.is_ack:
                self._ack_first.setdefault(node, rnd)
                self._ack_last[node] = rnd
        if self._completion_round is None and self.source is not None and not self._pending:
            self._completion_round = rnd

    def record_summary_round(
        self,
        round_number: int,
        *,
        transmissions: int = 0,
        receptions: int = 0,
        collisions: int = 0,
        kinds: Optional[Mapping[str, int]] = None,
        fixed_bits: int = 0,
        payload_messages: int = 0,
        informed: Iterable[int] = (),
        ack_hearers: Iterable[int] = (),
    ) -> None:
        """Record one round's aggregates without materialising a :class:`RoundRecord`.

        This is the fast path used by the vectorized backend at the
        ``"summary"`` / ``"none"`` levels: ``fixed_bits`` is the round's total
        message size excluding source-payload bits, ``payload_messages`` the
        number of transmissions whose size includes the payload, ``informed``
        the nodes that heard a µ-carrying message this round and
        ``ack_hearers`` the nodes that heard an ack.
        """
        if self.level == TRACE_FULL:
            raise TraceLevelError(
                "record_summary_round is only valid on summary/none traces; "
                "append full RoundRecords instead"
            )
        expected = self._num_rounds + 1
        if round_number != expected:
            raise ValueError(f"expected round {expected}, got summary for round {round_number}")
        self._num_rounds = expected
        self._total_tx += transmissions
        self._total_rx += receptions
        self._total_collisions += collisions
        for kind, count in (kinds or {}).items():
            if count:
                self._kind_hist[kind] = self._kind_hist.get(kind, 0) + int(count)
        self._fixed_bits += int(fixed_bits)
        self._payload_messages += int(payload_messages)
        for node in informed:
            node = int(node)
            self._informed_first.setdefault(node, round_number)
            self._pending.discard(node)
        for node in ack_hearers:
            node = int(node)
            self._ack_first.setdefault(node, round_number)
            self._ack_last[node] = round_number
        if self._completion_round is None and self.source is not None and not self._pending:
            self._completion_round = round_number

    @classmethod
    def from_aggregates(
        cls,
        num_nodes: int,
        source: Optional[int],
        *,
        level: str,
        num_rounds: int,
        total_transmissions: int = 0,
        total_receptions: int = 0,
        total_collisions: int = 0,
        kind_hist: Optional[Mapping[str, int]] = None,
        fixed_bits: int = 0,
        payload_messages: int = 0,
        informed_first: Optional[Mapping[int, int]] = None,
        ack_first: Optional[Mapping[int, int]] = None,
        ack_last: Optional[Mapping[int, int]] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "ExecutionTrace":
        """Materialise a summary/none-level trace from whole-run aggregates.

        The batched backend advances many instances per kernel round and
        accumulates each instance's aggregates in arrays; calling
        :meth:`record_summary_round` once per instance per round would undo
        that batching.  This constructor builds the identical end state in
        one step: the result compares equal (``==``) to a trace built
        incrementally from the same execution.  The completion round is
        derived exactly as the incremental path would have: the first round
        by which every non-source node appears in ``informed_first`` is
        their maximum first-receipt round (or round 1 for a source-only
        network that ran at least one round).
        """
        if level == TRACE_FULL:
            raise TraceLevelError(
                "from_aggregates builds summary/none traces; full traces "
                "need their per-round records appended"
            )
        trace = cls(num_nodes, source, metadata=metadata, level=level)
        trace._num_rounds = int(num_rounds)
        trace._total_tx = int(total_transmissions)
        trace._total_rx = int(total_receptions)
        trace._total_collisions = int(total_collisions)
        trace._kind_hist = {
            str(k): int(v) for k, v in (kind_hist or {}).items() if int(v)
        }
        trace._fixed_bits = int(fixed_bits)
        trace._payload_messages = int(payload_messages)
        trace._informed_first = {int(v): int(r) for v, r in (informed_first or {}).items()}
        trace._ack_first = {int(v): int(r) for v, r in (ack_first or {}).items()}
        trace._ack_last = {int(v): int(r) for v, r in (ack_last or {}).items()}
        trace._pending.difference_update(trace._informed_first)
        if source is not None and not trace._pending and trace._num_rounds >= 1:
            non_source = [r for v, r in trace._informed_first.items() if v != source]
            trace._completion_round = max(non_source) if non_source else 1
        return trace

    def to_aggregates(self) -> Dict[str, Any]:
        """The trace's aggregate state as a JSON-serializable document.

        This is the persistence format of summary/none traces (the result
        store attaches it to rows): every field :meth:`from_aggregates`
        accepts, with integer-keyed maps stringified for JSON.  For a
        summary/none trace whose metadata values are JSON-native,
        ``from_aggregates_doc(json.loads(json.dumps(t.to_aggregates())))``
        compares equal (``==``) to ``t`` — including the batched backend's
        whole-run aggregates (kind histogram, fixed bits, payload-message
        count, first-informed/ack maps).  Metadata travels verbatim, so
        non-JSON-serializable metadata values fail at ``json.dumps`` time
        rather than silently coming back stringified.  Full traces raise:
        their per-round records do not survive this view (use
        :meth:`to_json`).
        """
        if self.level == TRACE_FULL:
            raise TraceLevelError(
                "to_aggregates() captures summary/none traces; full traces "
                "serialise their per-round records via to_json()"
            )
        return {
            "num_nodes": self.num_nodes,
            "source": self.source,
            "level": self.level,
            "num_rounds": self._num_rounds,
            "total_transmissions": self._total_tx,
            "total_receptions": self._total_rx,
            "total_collisions": self._total_collisions,
            "kind_hist": dict(self._kind_hist),
            "fixed_bits": self._fixed_bits,
            "payload_messages": self._payload_messages,
            "informed_first": {str(v): r for v, r in self._informed_first.items()},
            "ack_first": {str(v): r for v, r in self._ack_first.items()},
            "ack_last": {str(v): r for v, r in self._ack_last.items()},
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_aggregates_doc(cls, doc: Mapping[str, Any]) -> "ExecutionTrace":
        """Rebuild a summary/none trace from a :meth:`to_aggregates` document."""
        return cls.from_aggregates(
            int(doc["num_nodes"]),
            None if doc.get("source") is None else int(doc["source"]),
            level=doc.get("level", TRACE_SUMMARY),
            num_rounds=int(doc.get("num_rounds", 0)),
            total_transmissions=int(doc.get("total_transmissions", 0)),
            total_receptions=int(doc.get("total_receptions", 0)),
            total_collisions=int(doc.get("total_collisions", 0)),
            kind_hist=doc.get("kind_hist"),
            fixed_bits=int(doc.get("fixed_bits", 0)),
            payload_messages=int(doc.get("payload_messages", 0)),
            informed_first={int(v): int(r)
                            for v, r in (doc.get("informed_first") or {}).items()},
            ack_first={int(v): int(r)
                       for v, r in (doc.get("ack_first") or {}).items()},
            ack_last={int(v): int(r)
                      for v, r in (doc.get("ack_last") or {}).items()},
            metadata=dict(doc.get("metadata") or {}),
        )

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_rounds(self) -> int:
        """Number of rounds recorded so far."""
        return self._num_rounds

    @property
    def has_full_records(self) -> bool:
        """True if per-round :class:`RoundRecord` objects were retained."""
        return self.level == TRACE_FULL

    def _require_full(self, what: str) -> None:
        if self.level != TRACE_FULL:
            raise TraceLevelError(
                f"{what} requires a full trace, but this trace was recorded at "
                f"level {self.level!r}; rerun with trace_level='full'"
            )

    def record(self, round_number: int) -> RoundRecord:
        """The record for a 1-indexed round number."""
        self._require_full("record()")
        if not (1 <= round_number <= self.num_rounds):
            raise IndexError(f"round {round_number} not in 1..{self.num_rounds}")
        return self.rounds[round_number - 1]

    def __iter__(self):
        self._require_full("iterating a trace")
        return iter(self.rounds)

    def __len__(self) -> int:
        return self.num_rounds

    # ------------------------------------------------------------------ #
    # derived per-node views (full traces only)
    # ------------------------------------------------------------------ #
    def transmit_rounds(self, node: int) -> List[int]:
        """Rounds in which ``node`` transmitted (any message kind)."""
        self._require_full("transmit_rounds()")
        return [r.round_number for r in self.rounds if node in r.transmissions]

    def receive_rounds(self, node: int) -> List[int]:
        """Rounds in which ``node`` heard a message (any kind)."""
        self._require_full("receive_rounds()")
        return [r.round_number for r in self.rounds if node in r.receptions]

    def collision_rounds(self, node: int) -> List[int]:
        """Rounds in which ``node`` experienced a collision."""
        self._require_full("collision_rounds()")
        return [r.round_number for r in self.rounds if node in r.collisions]

    def messages_heard(self, node: int) -> List[Tuple[int, Message]]:
        """All ``(round, message)`` pairs heard by ``node``."""
        self._require_full("messages_heard()")
        return [
            (r.round_number, r.receptions[node]) for r in self.rounds if node in r.receptions
        ]

    def messages_sent(self, node: int) -> List[Tuple[int, Message]]:
        """All ``(round, message)`` pairs transmitted by ``node``."""
        self._require_full("messages_sent()")
        return [
            (r.round_number, r.transmissions[node]) for r in self.rounds if node in r.transmissions
        ]

    # ------------------------------------------------------------------ #
    # broadcast-specific summaries (work at every level)
    # ------------------------------------------------------------------ #
    def first_source_receipt(self, node: int) -> Optional[int]:
        """First round in which ``node`` heard a message carrying µ, or ``None``.

        Both plain :data:`~repro.radio.messages.SOURCE` messages and ack
        messages that carry µ as payload count, because B_arb distributes µ via
        the acknowledgement chain in its phase 2.
        """
        return self._informed_first.get(node)

    def informed_nodes(self) -> Set[int]:
        """Nodes that have heard µ at least once (the source is always counted)."""
        informed: Set[int] = set(self._informed_first)
        if self.source is not None:
            informed.add(self.source)
        return informed

    def informed_by_round(self) -> Dict[int, int]:
        """Mapping node → first round it heard µ (source omitted)."""
        return dict(self._informed_first)

    def broadcast_completion_round(self) -> Optional[int]:
        """First round after which every non-source node has heard µ, or ``None``.

        Only meaningful when :attr:`source` is set.
        """
        if self.source is None:
            return None
        return self._completion_round

    def first_ack_at(self, node: int) -> Optional[int]:
        """First round in which ``node`` heard an ack message, or ``None``."""
        return self._ack_first.get(node)

    def last_ack_at(self, node: int) -> Optional[int]:
        """Most recent round in which ``node`` heard an ack message, or ``None``."""
        return self._ack_last.get(node)

    # ------------------------------------------------------------------ #
    # aggregates (work at every level)
    # ------------------------------------------------------------------ #
    def total_transmissions(self) -> int:
        """Total number of transmissions across all rounds."""
        return self._total_tx

    def total_receptions(self) -> int:
        """Total number of successful receptions across all rounds."""
        return self._total_rx

    def total_collisions(self) -> int:
        """Total number of (node, round) collision events."""
        return self._total_collisions

    def transmissions_by_kind(self) -> Dict[str, int]:
        """Histogram of transmitted message kinds."""
        return dict(self._kind_hist)

    def total_message_bits(self, source_payload_bits: int = 32) -> int:
        """Total bits put on the channel (the paper's message-size accounting)."""
        return self._fixed_bits + self._payload_messages * source_payload_bits

    # ------------------------------------------------------------------ #
    # serialization (for regression fixtures; full traces only)
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        """Serialise the trace to JSON (payloads are stringified)."""
        self._require_full("to_json()")
        doc = {
            "num_nodes": self.num_nodes,
            "source": self.source,
            "metadata": {k: str(v) for k, v in self.metadata.items()},
            "rounds": [
                {
                    "round": r.round_number,
                    "transmissions": {
                        str(u): _msg_doc(m) for u, m in sorted(r.transmissions.items())
                    },
                    "receptions": {
                        str(u): _msg_doc(m) for u, m in sorted(r.receptions.items())
                    },
                    "collisions": sorted(r.collisions),
                }
                for r in self.rounds
            ],
        }
        return json.dumps(doc, indent=2)

    def summary(self) -> str:
        """Multi-line human readable summary of the execution."""
        lines = [
            f"ExecutionTrace: {self.num_nodes} nodes, source={self.source}, "
            f"{self.num_rounds} rounds",
            f"  total transmissions: {self.total_transmissions()}",
            f"  total collisions:    {self.total_collisions()}",
            f"  informed nodes:      {len(self.informed_nodes())}/{self.num_nodes}",
        ]
        completion = self.broadcast_completion_round()
        if completion is not None:
            lines.append(f"  broadcast complete in round {completion}")
        return "\n".join(lines)


def _msg_doc(message: Message) -> Dict[str, Any]:
    return {
        "kind": message.kind,
        "payload": None if message.payload is None else str(message.payload),
        "round_stamp": message.round_stamp,
    }
