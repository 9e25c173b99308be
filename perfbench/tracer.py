"""Per-layer tracing for the benchmark's traced run.

The program has no spans of its own yet, so the tracer wraps the public entry
point of each layer from outside: it replaces a function, method or bound
method with a wrapper that records ``(span kind, thread, start ns, end ns)``
and, for a few entry points, counts the work it saw.  Every patch is undone
by :meth:`Tracer.uninstall`; the untraced run never calls :meth:`install`.

A span kind is the name of the per-layer time metric it feeds (for example
``core.label_s``).  Self time is attributed on one timeline for the whole
process (:func:`attribute`): each instant of the traced window goes to the
innermost open span of every thread, split evenly when several threads are
inside spans at once.  A ``service.*`` span is a client waiting on the
server, so it yields to any server-side span open at that instant.  Spans a
serving child process traced are merged in (:meth:`Tracer.merge`); the
clock is system-wide, so they share the timeline.  Instants with no open
span are ``other_s``.  On one thread this is the usual self time (span
duration minus the time covered by its children).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

#: Time metrics a span can feed, in report order.
SPAN_KINDS = (
    "graphs.gen_s",
    "core.label_s",
    "api.task_s",
    "api.derive_s",
    "backends.kernel_s",
    "analysis.row_s",
    "analysis.aggregate_s",
    "store.open_s",
    "store.put_s",
    "store.get_s",
    "service.self_s",
)

#: Work counters the wrappers maintain.
COUNTERS = (
    "graphs.instances",
    "graphs.edges",
    "core.label_calls",
    "core.sequence_builds",
    "backends.tasks",
    "backends.batches",
    "backends.rounds",
    "backends.node_rounds",
    "backends.fallbacks",
    "store.puts",
    "store.gets",
)


def layer_of(kind: str) -> str:
    """The layer (``repro`` subpackage) a span kind belongs to."""
    return kind.split(".", 1)[0]


#: ``(kind, thread, start ns, end ns)``; the thread is an ident, or
#: ``(origin, ident)`` for a span merged from another process.
Span = Tuple[str, Hashable, int, int]

#: The installed tracer, if any (a forked serving process finds it here).
ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Records spans and counters from patched layer entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget every span and count (a forked child's copy starts empty)."""
        self.spans.clear()
        self.counts = {name: 0 for name in COUNTERS}

    def merge(self, spans: List[Span], counts: Dict[str, int], origin: str) -> None:
        """Add another process's spans (threads tagged ``origin``) and counts."""
        with self._lock:
            self.spans.extend((kind, (origin, thread), begin, end)
                              for kind, thread, begin, end in spans)
            for name, amount in counts.items():
                self.counts[name] += amount

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += int(amount)

    def wrap(self, kind: str, fn: Callable, on_result: Optional[Callable] = None,
             outermost: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``kind`` span per call.

        ``on_result(result, args)`` runs after every call; ``outermost`` runs
        only for calls not nested in another ``outermost``-tracked call of
        the same layer on this thread (a backend delegating to itself or to
        its fallback engine is one task, not two).
        """
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns
        ident = threading.get_ident

        def traced(*args: Any, **kwargs: Any) -> Any:
            depth = getattr(local, kind, 0)
            setattr(local, kind, depth + 1)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((kind, ident(), start, clock()))
                setattr(local, kind, depth)
            if on_result is not None:
                on_result(result, args)
            if outermost is not None and depth == 0:
                outermost(result, args)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: Any, name: str, kind: str, **hooks: Any) -> None:
        """Replace ``owner.name`` by its traced wrapper (undone on uninstall)."""
        own = vars(owner)
        self._patches.append((owner, name, own.get(name), name in own))
        setattr(owner, name, self.wrap(kind, getattr(owner, name), **hooks))

    # ------------------------------------------------------------------ #
    # the layer entry points
    # ------------------------------------------------------------------ #
    def install(self, backends: Tuple[str, ...]) -> None:
        """Patch every layer's public entry points."""
        global ACTIVE
        ACTIVE = self
        from repro.analysis import stream, sweep
        from repro.api import grid
        from repro.api.schemes import get_scheme, scheme_names
        from repro.backends import resolve_backend
        from repro.core import labeling
        from repro.service.client import ServiceClient
        from repro.store.store import ResultStore

        def on_graph(graph: Any, _args: Any) -> None:
            self.count("graphs.instances")
            self.count("graphs.edges", graph.num_edges)

        self.patch(sweep, "materialize_instance", "graphs.gen_s")
        self.patch(sweep, "generate_family", "graphs.gen_s", on_result=on_graph)

        self.patch(labeling, "build_sequences", "core.label_s",
                   on_result=lambda r, a: self.count("core.sequence_builds"))
        for name in scheme_names():
            scheme = get_scheme(name)
            self.patch(scheme, "build_labels", "core.label_s",
                       on_result=lambda r, a: self.count("core.label_calls"))
            self.patch(scheme, "build_task", "api.task_s")
            self.patch(scheme, "derive_outcome", "api.derive_s")

        for spec in backends:
            backend = resolve_backend(spec)

            def on_results(results: List[Any], tasks: List[Any],
                           requested: str = backend.name) -> None:
                for task, result in zip(tasks, results):
                    rounds = int(result.simulation.stop_round)
                    self.count("backends.tasks")
                    self.count("backends.rounds", rounds)
                    self.count("backends.node_rounds", rounds * task.graph.n)
                    self.count("backends.fallbacks", result.backend != requested)

            self.patch(backend, "run_task", "backends.kernel_s",
                       outermost=lambda r, a, f=on_results: f([r], [a[0]]))
            self.patch(backend, "run_batch", "backends.kernel_s",
                       on_result=lambda r, a: self.count("backends.batches"),
                       outermost=lambda r, a, f=on_results: f(r, list(a[0])))

        self.patch(grid, "metrics_from_run", "analysis.row_s")
        self.patch(stream, "aggregate_result_set", "analysis.aggregate_s")
        self.patch(stream, "stream_aggregate", "analysis.aggregate_s")

        self.patch(ResultStore, "__init__", "store.open_s")
        self.patch(ResultStore, "put", "store.put_s",
                   on_result=lambda r, a: self.count("store.puts"))
        # Closing writes the sidecar indexes of the shards ``put`` dirtied.
        self.patch(ResultStore, "close", "store.put_s")
        self.patch(ResultStore, "get", "store.get_s",
                   on_result=lambda r, a: self.count("store.gets"))
        self.patch(ResultStore, "rows", "store.get_s",
                   on_result=lambda r, a: self.count("store.gets", len(r)))

        for method in ("submit", "query", "aggregate"):
            self.patch(ServiceClient, method, "service.self_s")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        global ACTIVE
        ACTIVE = None
        while self._patches:
            owner, name, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def attribute(spans: List[Span], start_ns: int, end_ns: int
              ) -> Tuple[Dict[str, float], float, int]:
    """Self seconds per span kind, uncovered seconds, and clipped spans.

    Spans are clipped to ``[start_ns, end_ns]``; the third value counts the
    spans that crossed a window edge (0 when every traced call ran either
    inside the traced window or wholly outside it).
    """
    events: List[Tuple[int, int, int, int]] = []
    clipped = 0
    for index, (_kind, _tid, begin, end) in enumerate(spans):
        if begin < start_ns < end or begin < end_ns < end:
            clipped += 1
        begin, end = max(begin, start_ns), min(end, end_ns)
        if end <= begin:
            continue
        # At equal times, ends come before starts, and an enclosing span
        # (longer) is pushed before the spans it encloses.
        events.append((end, 0, end - begin, index))
        events.append((begin, 1, begin - end, index))
    events.sort()

    stacks: Dict[int, List[int]] = defaultdict(list)
    self_ns: Dict[str, float] = defaultdict(float)
    idle_ns = 0
    previous = start_ns

    def credit(width: int) -> None:
        nonlocal idle_ns
        tops = [spans[stack[-1]][0] for stack in stacks.values() if stack]
        inner = [k for k in tops if layer_of(k) != "service"] or tops
        if not inner:
            idle_ns += width
            return
        share = width / len(inner)
        for kind in inner:
            self_ns[kind] += share

    for at, is_start, _order, index in events:
        if at > previous:
            credit(at - previous)
            previous = at
        stack = stacks[spans[index][1]]
        if is_start:
            stack.append(index)
        elif stack and stack[-1] == index:
            stack.pop()
        else:
            stack.remove(index)
    if end_ns > previous:
        credit(end_ns - previous)
    return ({k: v / 1e9 for k, v in self_ns.items()}, idle_ns / 1e9, clipped)
