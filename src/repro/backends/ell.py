"""ELL/padded adjacency layout and the optional JIT-compiled kernel tier.

The CSR channel in :mod:`repro.backends.vectorized` resolves each round with
a ``bincount`` over the concatenated neighbour slices of the transmitters —
fast, but every round pays NumPy dispatch for a dozen array ops over
``n``-sized state.  For the near-regular families the repo sweeps most (grid,
geometric, bounded-degree gnp), where max-degree ≈ mean-degree, a fixed-width
padded neighbour table (ELL/ELLPACK, the classic SpMV layout) gives
branch-free rows that a JIT can turn into tight machine loops.

Three pieces live here:

* :class:`EllAdjacency` — the layout: an ``int64[n, width]`` table whose row
  ``v`` holds ``v``'s neighbours followed by *self-padding* (copies of ``v``'s
  own id).  Self-padding makes the padded entries harmless by construction:
  a pad only ever contributes to the pad-owner's own receive count, and
  transmitters' counts are zeroed anyway ("transmitters hear nothing"), so
  no mask is needed, degree-0 nodes have rows that never read garbage, and
  the NumPy kernels can ``bincount`` whole rows unconditionally.  The
  ``padding_ratio = n * width / m`` regularity probe guards the layout:
  irregular graphs (star: ratio ≈ n/2) fall back to the CSR backend.

* The **NumPy ELL tier** — :class:`_EllChannel` is a drop-in replacement for
  the CSR ``_Channel`` (same ``resolve_ids`` quadruple, bit for bit), injected
  into the *same* round loops (``_run_broadcast_kernel`` /
  ``_run_slotted_kernel``), so equivalence with the vectorized backend holds
  by construction.

* The **JIT tier** — when numba imports (``pip install "repro[jit]"``; it is
  an optional extra, never required by tier-1 tests), each round runs as one
  compiled function fusing decide → transmit → receive → update over the
  padded rows.  The kernels are *event-driven*: the decide step walks the
  compact candidate lists the protocol structure exposes (nodes informed at
  ``r-2`` / ``r-1``, last round's *stay*-hearers) and the receive step pushes
  only the transmitters' padded rows into a scratch count array, resolving
  just the touched nodes — per-round cost scales with the broadcast frontier,
  not with ``n``.  Without numba the same functions run as plain Python
  (the differential tests exercise them at small ``n`` either way) and the
  backend silently degrades to the NumPy ELL path for real workloads.

``EllBackend`` covers the ``broadcast``, ``round_robin`` and
``coloring_tdma`` protocols under the paper's default channel models and
delegates everything else to :class:`~repro.backends.vectorized.VectorizedBackend`
(which may in turn delegate to the reference engine) — the delegated result
keeps its own provenance tag, so rows always record the engine that actually
ran them.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from ..radio.clock import SynchronizedClocks
from ..radio.collision import NoCollisionDetection
from ..radio.engine import SimulationResult
from ..radio.faults import NoFaults
from ..radio.messages import source_message, stay_message
from .base import BackendError, BackendResult, SimulationBackend, SimulationTask
from .vectorized import (
    _EMPTY,
    _NEVER,
    _Recorder,
    _parse_bit_labels,
    _parse_slot_labels,
    _run_broadcast_kernel,
    _run_slotted_kernel,
)
from .vectorized import VectorizedBackend

__all__ = ["DEFAULT_MAX_PADDING_RATIO", "EllAdjacency", "EllBackend", "jit_available"]

try:  # pragma: no cover - exercised only in the numba CI leg
    import numba as _numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the default environment
    _numba = None
    _HAVE_NUMBA = False


def jit_available() -> bool:
    """True when numba imports, i.e. ``--backend ell`` auto-selects the JIT tier."""
    return _HAVE_NUMBA


def _maybe_njit(func):
    """Compile with numba when available; otherwise run as plain Python.

    The fallback keeps the kernel *logic* importable and testable without
    numba (the differential suite runs it at small ``n``); production use
    without numba goes through the NumPy ELL channel instead.
    """
    if _HAVE_NUMBA:  # pragma: no cover - exercised only in the numba CI leg
        return _numba.njit(cache=True, nogil=True)(func)
    return func


#: Above this ``n * width / m`` blow-up the padded table is mostly padding
#: (star: ratio ≈ n/2) and the backend falls back to the CSR engine.
DEFAULT_MAX_PADDING_RATIO = 4.0


# --------------------------------------------------------------------------- #
# the layout
# --------------------------------------------------------------------------- #
class EllAdjacency:
    """Padded fixed-width neighbour table (ELL/ELLPACK) with self-padding.

    Row ``v`` of :attr:`neighbors` holds ``v``'s neighbours in CSR order,
    followed by ``width - degree(v)`` copies of ``v`` itself.  See the module
    docstring for why self-padding is bit-safe.
    """

    __slots__ = ("n", "width", "neighbors", "degrees", "padding_ratio", "__weakref__")

    def __init__(
        self,
        n: int,
        width: int,
        neighbors: np.ndarray,
        degrees: np.ndarray,
        padding_ratio: float,
    ) -> None:
        self.n = int(n)
        self.width = int(width)
        self.neighbors = neighbors
        self.degrees = degrees
        self.padding_ratio = float(padding_ratio)

    @classmethod
    def from_csr(cls, indptr: np.ndarray, indices: np.ndarray, n: int) -> "EllAdjacency":
        """Build the padded table from CSR arrays (vectorized, no Python loop)."""
        degrees = np.diff(indptr).astype(np.int64, copy=False)
        width = int(degrees.max()) if n > 0 and degrees.size else 0
        neighbors = np.repeat(np.arange(n, dtype=np.int64), width).reshape(n, width)
        if width:
            mask = np.arange(width, dtype=np.int64)[None, :] < degrees[:, None]
            neighbors[mask] = indices
        m = int(indptr[-1]) if n > 0 else 0
        ratio = (n * width / m) if m else 1.0
        return cls(n, width, neighbors, degrees, ratio)

    @classmethod
    def from_graph(cls, graph) -> "EllAdjacency":
        indptr, indices = graph.csr()
        return cls.from_csr(indptr, indices, graph.n)

    def to_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Reconstruct the CSR arrays (exact round-trip of :meth:`from_csr`)."""
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=indptr[1:])
        if self.width:
            mask = np.arange(self.width, dtype=np.int64)[None, :] < self.degrees[:, None]
            indices = self.neighbors[mask]
        else:
            indices = np.empty(0, dtype=np.int64)
        return indptr, indices


def padding_ratio_of(graph) -> float:
    """The regularity probe ``n * width / m`` without building the table."""
    n = graph.n
    if n == 0:
        return 1.0
    indptr, _ = graph.csr()
    degrees = np.diff(indptr)
    width = int(degrees.max()) if degrees.size else 0
    m = int(indptr[-1])
    return (n * width / m) if m else 1.0


# --------------------------------------------------------------------------- #
# the NumPy ELL tier: a drop-in _Channel over padded rows
# --------------------------------------------------------------------------- #
class _EllChannel:
    """ELL counterpart of the CSR ``_Channel`` — same ``resolve`` /
    ``resolve_ids`` contract.

    One ``bincount`` over the transmitters' *whole* padded rows: self-padding
    only ever increments the transmitters' own counts, which are zeroed
    ("transmitters hear nothing in their own round"), so no pad mask is
    needed and the weighted sender ``bincount`` stays exact at count-1 nodes.
    """

    def __init__(self, ell: EllAdjacency) -> None:
        self.n = ell.n
        self.width = ell.width
        self.neighbors = ell.neighbors

    def resolve(
        self, tx_mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.resolve_ids(np.flatnonzero(tx_mask))

    def resolve_ids(
        self, tx_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if tx_ids.size == 0 or self.width == 0:
            return tx_ids, _EMPTY, _EMPTY, _EMPTY
        targets = self.neighbors[tx_ids].ravel()
        counts = np.bincount(targets, minlength=self.n).astype(np.int64, copy=False)
        counts[tx_ids] = 0  # transmitters hear nothing in their own round
        hears_ids = np.flatnonzero(counts == 1)
        collision_ids = np.flatnonzero(counts >= 2)
        if hears_ids.size:
            owners = np.repeat(tx_ids, self.width).astype(np.float64)
            sums = np.bincount(targets, weights=owners, minlength=self.n)
            senders = sums[hears_ids].astype(np.int64)
        else:
            senders = _EMPTY
        return tx_ids, hears_ids, senders, collision_ids


# --------------------------------------------------------------------------- #
# the JIT tier: one fused compiled function per protocol round
# --------------------------------------------------------------------------- #
@_maybe_njit
def _ell_broadcast_round(
    neighbors,  # int64[n, width] self-padded rows
    r,  # current round (int)
    src,  # source node id (int)
    x1,  # bool[n] label bit 1
    x2,  # bool[n] label bit 2
    informed,  # bool[n] protocol state (updated in place)
    informed_r,  # int64[n] first-informed round (updated in place)
    flag_src2,  # bool[n]: transmitted *source* at round r-2
    newly1,  # int64 list: nodes informed at r-1
    n1,
    newly2,  # int64 list: nodes informed at r-2
    n2,
    stay_prev,  # int64 list: stay-hearers of round r-1
    nsp,
    tx_flag,  # int8[n] scratch, all zero between rounds (1=source, 2=stay)
    counts,  # int64[n] scratch, all zero between rounds
    sender_arr,  # int64[n] scratch (stale values are never read)
    txsrc_buf,  # int64[n] out: this round's source transmitters
    txstay_buf,  # int64[n] out: this round's stay transmitters
    touched_buf,  # int64[n] scratch: nodes whose count went 0 -> 1
    mu_buf,  # int64[n] out: all hearers of a source message
    stay_buf,  # int64[n] out: all hearers of a stay message
    new_buf,  # int64[n] out: newly informed nodes
    coll_buf,  # int64[n] out: collision nodes
):
    # Decide (Algorithm 1): the only candidates are nodes informed exactly at
    # r-2 (label bit x1), nodes informed at r-1 (stay, bit x2), and last
    # round's stay-hearers that transmitted source two rounds ago.
    t_src = 0
    if r == 1:
        txsrc_buf[t_src] = src
        t_src += 1
    for i in range(n2):
        v = newly2[i]
        if x1[v]:
            txsrc_buf[t_src] = v
            t_src += 1
    for i in range(nsp):
        v = stay_prev[i]
        if informed[v] and flag_src2[v]:
            ir = informed_r[v]
            if ir != r - 2 and ir != r - 1:
                txsrc_buf[t_src] = v
                t_src += 1
    t_stay = 0
    for i in range(n1):
        v = newly1[i]
        if x2[v]:
            txstay_buf[t_stay] = v
            t_stay += 1

    # Transmit: push each transmitter's padded row into the scratch counts.
    # Self-pads only increment the transmitter's own (skipped) count.
    width = neighbors.shape[1]
    for i in range(t_src):
        tx_flag[txsrc_buf[i]] = 1
    for i in range(t_stay):
        tx_flag[txstay_buf[i]] = 2
    tt = 0
    for i in range(t_src + t_stay):
        u = txsrc_buf[i] if i < t_src else txstay_buf[i - t_src]
        for j in range(width):
            w = neighbors[u, j]
            c = counts[w]
            if c == 0:
                touched_buf[tt] = w
                tt += 1
                sender_arr[w] = u
            counts[w] = c + 1

    # Receive + update: resolve only the touched nodes, resetting the
    # scratch counts as we go.
    n_hears = 0
    mu_t = 0
    stay_t = 0
    new_t = 0
    coll_t = 0
    for i in range(tt):
        w = touched_buf[i]
        c = counts[w]
        counts[w] = 0
        if tx_flag[w] != 0:
            continue  # transmitters hear nothing in their own round
        if c == 1:
            n_hears += 1
            u = sender_arr[w]
            if tx_flag[u] == 2:
                stay_buf[stay_t] = w
                stay_t += 1
            else:
                mu_buf[mu_t] = w
                mu_t += 1
                if not informed[w]:
                    informed[w] = True
                    informed_r[w] = r
                    new_buf[new_t] = w
                    new_t += 1
        elif c >= 2:
            coll_buf[coll_t] = w
            coll_t += 1
    for i in range(t_src):
        tx_flag[txsrc_buf[i]] = 0
    for i in range(t_stay):
        tx_flag[txstay_buf[i]] = 0
    return t_src, t_stay, n_hears, mu_t, stay_t, new_t, coll_t


@_maybe_njit
def _ell_slotted_round(
    neighbors,
    r,
    slot_residue,  # int64[n]
    periods,  # int64[n]
    informed,  # bool[n] (updated in place)
    tx_flag,  # bool[n] scratch, all zero between rounds
    counts,  # int64[n] scratch, all zero between rounds
    sender_arr,  # int64[n] scratch
    tx_buf,
    touched_buf,
    hear_buf,  # out: all hearers (every heard message carries µ here)
    new_buf,  # out: newly informed nodes
    coll_buf,  # out: collision nodes
):
    n = informed.shape[0]
    width = neighbors.shape[1]
    t = 0
    for v in range(n):
        if informed[v] and (r % periods[v]) == slot_residue[v]:
            tx_buf[t] = v
            tx_flag[v] = True
            t += 1
    tt = 0
    for i in range(t):
        u = tx_buf[i]
        for j in range(width):
            w = neighbors[u, j]
            c = counts[w]
            if c == 0:
                touched_buf[tt] = w
                tt += 1
                sender_arr[w] = u
            counts[w] = c + 1
    hear_t = 0
    new_t = 0
    coll_t = 0
    for i in range(tt):
        w = touched_buf[i]
        c = counts[w]
        counts[w] = 0
        if tx_flag[w]:
            continue
        if c == 1:
            hear_buf[hear_t] = w
            hear_t += 1
            if not informed[w]:
                informed[w] = True
                new_buf[new_t] = w
                new_t += 1
        elif c >= 2:
            coll_buf[coll_t] = w
            coll_t += 1
    for i in range(t):
        tx_flag[tx_buf[i]] = False
    return t, hear_t, new_t, coll_t


def _run_broadcast_jit(task: SimulationTask, ell: EllAdjacency) -> BackendResult:
    """Algorithm B through the fused event-driven round kernel.

    Mirrors ``vectorized._run_broadcast_kernel`` decision for decision —
    the per-round Python work is O(active nodes), never O(n).
    """
    n = task.graph.n
    src = task.source
    payload = task.payload
    rec = _Recorder(n, src, task.trace_level)
    x1, x2, _ = _parse_bit_labels(task.labels, n)

    informed = np.zeros(n, dtype=bool)
    informed[src] = True
    informed_count = 1
    informed_r = np.full(n, _NEVER, dtype=np.int64)
    flag_src2 = np.zeros(n, dtype=bool)
    src_r1 = _EMPTY  # source transmitters of round r-1
    src_r2 = _EMPTY  # source transmitters of round r-2
    newly1 = _EMPTY  # nodes informed at r-1
    newly2 = _EMPTY  # nodes informed at r-2
    stay_prev = _EMPTY  # stay-hearers of round r-1

    tx_flag = np.zeros(n, dtype=np.int8)
    counts = np.zeros(n, dtype=np.int64)
    sender_arr = np.zeros(n, dtype=np.int64)
    txsrc_buf = np.empty(n, dtype=np.int64)
    txstay_buf = np.empty(n, dtype=np.int64)
    touched_buf = np.empty(n, dtype=np.int64)
    mu_buf = np.empty(n, dtype=np.int64)
    stay_buf = np.empty(n, dtype=np.int64)
    new_buf = np.empty(n, dtype=np.int64)
    coll_buf = np.empty(n, dtype=np.int64)

    completion: Optional[int] = None
    stop_round, stop_reason = 0, "budget"

    for r in range(1, task.max_rounds + 1):
        t_src, t_stay, n_hears, mu_t, stay_t, new_t, coll_t = _ell_broadcast_round(
            ell.neighbors, r, src, x1, x2, informed, informed_r,
            flag_src2,
            newly1, newly1.size, newly2, newly2.size, stay_prev, stay_prev.size,
            tx_flag, counts, sender_arr,
            txsrc_buf, txstay_buf, touched_buf,
            mu_buf, stay_buf, new_buf, coll_buf,
        )
        informed_count += new_t

        if rec.full:
            src_msg, stay_msg = source_message(payload), stay_message()
            transmissions = {int(u): src_msg for u in np.sort(txsrc_buf[:t_src])}
            for u in np.sort(txstay_buf[:t_stay]):
                transmissions[int(u)] = stay_msg
            hears = np.sort(np.concatenate([mu_buf[:mu_t], stay_buf[:stay_t]]))
            receptions = {
                int(v): transmissions[int(u)] for v, u in zip(hears, sender_arr[hears])
            }
            rec.full_round(r, transmissions, receptions, coll_buf[:coll_t])
        else:
            rec.summary_round(
                r,
                transmissions=t_src + t_stay,
                receptions=n_hears,
                collisions=coll_t,
                kinds={"source": t_src, "stay": t_stay},
                fixed_bits=2 * t_stay,
                payload_messages=t_src,
                informed=np.sort(mu_buf[:mu_t]) if rec.per_node else (),
                ack_hearers=(),
            )

        # Rotate the event lists and their O(1)-lookup flags.
        flag_src2[src_r2] = False
        flag_src2[src_r1] = True
        src_r2, src_r1 = src_r1, txsrc_buf[:t_src].copy()
        stay_prev = stay_buf[:stay_t].copy()
        newly2, newly1 = newly1, new_buf[:new_t].copy()

        stop_round = r
        if completion is None and informed_count == n:
            completion = r
        if task.stop_rule == "all_informed" and informed_count == n:
            stop_reason = "condition"
            break

    sim = SimulationResult(
        trace=rec.trace, nodes=[], stop_round=stop_round, stop_reason=stop_reason
    )
    return BackendResult(simulation=sim, derived={"completion_round": completion})


def _run_slotted_jit(task: SimulationTask, ell: EllAdjacency) -> BackendResult:
    """Round-robin / TDMA source flood through the fused round kernel."""
    n = task.graph.n
    src = task.source
    payload = task.payload
    rec = _Recorder(n, src, task.trace_level)
    slots, periods = _parse_slot_labels(task.labels, n)
    slot_residue = slots % periods

    informed = np.zeros(n, dtype=bool)
    informed[src] = True
    informed_count = 1

    tx_flag = np.zeros(n, dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    sender_arr = np.zeros(n, dtype=np.int64)
    tx_buf = np.empty(n, dtype=np.int64)
    touched_buf = np.empty(n, dtype=np.int64)
    hear_buf = np.empty(n, dtype=np.int64)
    new_buf = np.empty(n, dtype=np.int64)
    coll_buf = np.empty(n, dtype=np.int64)

    completion: Optional[int] = None
    stop_round, stop_reason = 0, "budget"

    for r in range(1, task.max_rounds + 1):
        t, hear_t, new_t, coll_t = _ell_slotted_round(
            ell.neighbors, r, slot_residue, periods, informed,
            tx_flag, counts, sender_arr,
            tx_buf, touched_buf, hear_buf, new_buf, coll_buf,
        )
        informed_count += new_t
        if rec.full:
            msg = source_message(payload)
            transmissions = {int(u): msg for u in np.sort(tx_buf[:t])}
            receptions = {int(v): msg for v in np.sort(hear_buf[:hear_t])}
            rec.full_round(r, transmissions, receptions, coll_buf[:coll_t])
        else:
            rec.summary_round(
                r,
                transmissions=t,
                receptions=hear_t,
                collisions=coll_t,
                kinds={"source": t},
                fixed_bits=0,
                payload_messages=t,
                informed=np.sort(hear_buf[:hear_t]) if rec.per_node else (),
                ack_hearers=(),
            )
        stop_round = r
        if completion is None and informed_count == n:
            completion = r
        if task.stop_rule == "all_informed" and informed_count == n:
            stop_reason = "condition"
            break

    sim = SimulationResult(
        trace=rec.trace, nodes=[], stop_round=stop_round, stop_reason=stop_reason
    )
    return BackendResult(simulation=sim, derived={"completion_round": completion})


_JIT_KERNELS = {
    "broadcast": _run_broadcast_jit,
    "round_robin": _run_slotted_jit,
    "coloring_tdma": _run_slotted_jit,
}

_NUMPY_KERNELS = {
    "broadcast": _run_broadcast_kernel,
    "round_robin": _run_slotted_kernel,
    "coloring_tdma": _run_slotted_kernel,
}


# --------------------------------------------------------------------------- #
# the backend
# --------------------------------------------------------------------------- #
class EllBackend(SimulationBackend):
    """Padded-adjacency (ELL) engine with an optional JIT-compiled tier.

    Parameters
    ----------
    mode:
        ``"auto"`` (the ``"ell"`` spec) runs the JIT tier when numba imports
        and the NumPy ELL tier otherwise; ``"jit"`` (``"ell:jit"``) prefers
        the JIT tier, silently degrading to NumPy when numba is absent;
        ``"numpy"`` (``"ell:numpy"``) forces the NumPy tier.
    strict:
        If true, raise :class:`~repro.backends.base.BackendError` on tasks
        the ELL kernels cannot execute instead of delegating them to the
        vectorized backend.
    max_padding_ratio:
        Regularity-probe threshold: tasks whose graph pads worse than this
        (``n * width / m``) are delegated to the CSR engine.
    """

    name = "ell"

    _PROTOCOLS = ("broadcast", "round_robin", "coloring_tdma")
    _MODES = ("auto", "jit", "numpy")

    def __init__(
        self,
        *,
        mode: str = "auto",
        strict: bool = False,
        max_padding_ratio: float = DEFAULT_MAX_PADDING_RATIO,
    ) -> None:
        if mode not in self._MODES:
            raise BackendError(
                f"unknown ell mode {mode!r}; expected one of {self._MODES}"
            )
        self.mode = mode
        self.strict = strict
        self.max_padding_ratio = float(max_padding_ratio)
        self._fallback = VectorizedBackend()
        self._layouts: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._ratios: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    @property
    def jit_active(self) -> bool:
        """True when tasks this backend supports run through compiled kernels."""
        return self.mode != "numpy" and _HAVE_NUMBA

    def _padding_ratio(self, graph) -> float:
        ratio = self._ratios.get(graph)
        if ratio is None:
            ratio = padding_ratio_of(graph)
            self._ratios[graph] = ratio
        return ratio

    def _layout(self, graph) -> EllAdjacency:
        ell = self._layouts.get(graph)
        if ell is None:
            ell = EllAdjacency.from_graph(graph)
            self._layouts[graph] = ell
        return ell

    def supports(self, task: SimulationTask) -> bool:
        """True if an ELL kernel covers ``task`` (incl. the regularity probe)."""
        if task.protocol not in self._PROTOCOLS:
            return False
        if task.source is None or task.graph.n == 0:
            return False
        if task.collision_model is not None and type(task.collision_model) is not NoCollisionDetection:
            return False
        if task.fault_model is not None and type(task.fault_model) is not NoFaults:
            return False
        if task.clock_model is not None and type(task.clock_model) is not SynchronizedClocks:
            return False
        return self._padding_ratio(task.graph) <= self.max_padding_ratio

    def run_task(self, task: SimulationTask) -> BackendResult:
        if not self.supports(task):
            if self.strict:
                raise BackendError(
                    f"ell backend has no kernel for protocol {task.protocol!r} "
                    f"with the given channel models (or the graph failed the "
                    f"padding-ratio probe)"
                )
            # The fallback result keeps its own provenance tag.
            return self._fallback.run_task(task)
        ell = self._layout(task.graph)
        if self.jit_active:  # pragma: no cover - exercised only in the numba CI leg
            result = _JIT_KERNELS[task.protocol](task, ell)
            result.backend = "ell:jit"
        else:
            result = _NUMPY_KERNELS[task.protocol](task, _EllChannel(ell))
            result.backend = self.name
        return result
