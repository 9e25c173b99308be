"""The three workloads: what each one runs, and how a timed phase runs it.

Every input is a grid named by an id in a fixed pool; ``golden.json`` holds
the digest of each one.  A run's ``--seed`` picks where in each pool it
starts, and one process never runs the same grid twice, so no timed phase
can be served from work an earlier phase of the same process did.  Warm-up
grids use their own ids, disjoint from the timed pools.

* ``sweep_large`` — cold ``run_grid`` of the three paper schemes on large
  random and grid graphs: the Section 2.1 label construction does the work.
* ``sweep_long`` — cold ``run_grid`` on long-diameter graphs, where rounds
  are about 2n and the round kernels do the work.
* ``serve_mixed`` — one closed-loop ``ServiceClient`` connection against a
  ``ServiceHarness`` in a forked child process (as a user's client and
  server are separate processes): warm submits, filtered queries and
  aggregates read the store, and a cold submit every ``cold_interval_s``
  writes to it.  Cold submits are paced by time rather than by
  request count, so the store grows by the same number of rows in every
  run whatever the program's speed (query and aggregate cost grows with the
  store).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import multiprocessing
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.analysis.stream import aggregate_result_set, filter_result_set
from repro.api import GridConfig, ResultStore, run_grid
from repro.service import ServiceClient, ServiceHarness

from perfbench import tracer
from perfbench.gate import Gate

#: Setup is repeated this many times per run and its median reported.
SETUP_REPS = 3
#: Grid-id offset of warm-up grids; timed pools stay far below it.
WARMUP_ID = 90_000
#: Fewest requests a full ``serve_mixed`` phase may report a p95 from (ten
#: samples above it).
MIN_REQUESTS = 200


@dataclass(frozen=True)
class SweepSpec:
    families: Tuple[str, ...]
    size: int
    schemes: Tuple[str, ...]
    warmup_size: int
    pool: int
    base: int
    seeds_per_grid: int = 2
    backend: str = "vectorized"

    @property
    def rows_per_grid(self) -> int:
        return len(self.families) * self.seeds_per_grid * len(self.schemes)

    def grid(self, grid_id: int) -> GridConfig:
        warmup = grid_id >= WARMUP_ID
        return GridConfig(
            families=list(self.families),
            sizes=[self.warmup_size if warmup else self.size],
            seeds_per_size=1 if warmup else self.seeds_per_grid,
            schemes=list(self.schemes),
            base_seed=self.base + grid_id,
        )


@dataclass(frozen=True)
class ServeSpec:
    families: Tuple[str, ...]
    sizes: Tuple[int, ...]
    seeds: int
    schemes: Tuple[str, ...]
    prefill_pool: int
    cold_family: str
    cold_size: int
    cold_pool: int
    cold_interval_s: float
    base: int
    backend: str = "batched"
    #: Row credit the client grants each submit and query, above twice the
    #: largest answer (432 rows) so that no credit frame is sent mid-answer.
    #: The client's socket has Nagle's algorithm on, so with the default
    #: window of 64 a credit frame, or the next request queued behind it,
    #: waits for the server's delayed ACK (about 40 ms) on a random 10-25 %
    #: of requests, and rows/s and the p95 follow that share.
    window: int = 1024
    #: Filters of the ``query`` requests; none matches a cold-submit row
    #: (the cold grid's family/size is outside them), so each answer is fixed
    #: by the prefill.  Both select one scheme on one axis value, so they
    #: return equally many rows and the latency distribution keeps one query
    #: mode, which the request p50 falls in.
    queries: Tuple[Dict[str, Any], ...] = field(default=(
        {"schemes": ["lambda"], "sizes": [64]},
        {"schemes": ["lambda_ack"], "families": ["geometric"]},
    ))

    def prefill(self, grid_id: int) -> GridConfig:
        return GridConfig(
            families=list(self.families), sizes=list(self.sizes),
            seeds_per_size=self.seeds, schemes=list(self.schemes),
            base_seed=self.base + grid_id,
        )

    def cold(self, grid_id: int) -> GridConfig:
        return GridConfig(
            families=[self.cold_family], sizes=[self.cold_size],
            schemes=list(self.schemes), base_seed=self.base + 1000 + grid_id,
        )

    def aggregate_args(self) -> Dict[str, Any]:
        """The ``completion_round`` aggregate, restricted to prefill sizes."""
        return {"by": ["scheme", "family"], "sizes": list(self.sizes)}


SPECS: Dict[str, Dict[str, Any]] = {
    "full": {
        "sweep_large": SweepSpec(
            families=("gnp_sparse", "geometric", "grid"), size=4096,
            schemes=("lambda", "lambda_ack", "lambda_arb"),
            warmup_size=256, pool=32, base=10_000),
        "sweep_long": SweepSpec(
            families=("path", "cycle", "caterpillar", "random_tree"), size=1024,
            schemes=("lambda", "lambda_ack", "lambda_arb", "round_robin"),
            warmup_size=128, pool=48, base=20_000),
        "serve_mixed": ServeSpec(
            families=("gnp_sparse", "geometric", "random_tree"),
            sizes=(32, 64, 128), seeds=16,
            schemes=("lambda", "lambda_ack", "round_robin"),
            prefill_pool=8, cold_family="gnp_sparse", cold_size=40,
            cold_pool=1024, cold_interval_s=0.2, base=30_000),
    },
    "quick": {
        "sweep_large": SweepSpec(
            families=("gnp_sparse", "geometric", "grid"), size=144,
            schemes=("lambda", "lambda_ack", "lambda_arb"),
            warmup_size=36, pool=64, base=10_000),
        "sweep_long": SweepSpec(
            families=("path", "cycle", "caterpillar", "random_tree"), size=48,
            schemes=("lambda", "lambda_ack", "lambda_arb", "round_robin"),
            warmup_size=16, pool=64, base=20_000),
        "serve_mixed": ServeSpec(
            families=("gnp_sparse", "geometric", "random_tree"),
            sizes=(16, 64), seeds=2,
            schemes=("lambda", "lambda_ack", "round_robin"),
            prefill_pool=8, cold_family="gnp_sparse", cold_size=20,
            cold_pool=64, cold_interval_s=0.125, base=30_000),
    },
}


def pool_order(seed: int, pool: int) -> List[int]:
    """Every id of a pool once, starting at a seed-dependent position."""
    start = (seed * 7919) % pool
    return [(start + i) % pool for i in range(pool)]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Request(NamedTuple):
    """One ``serve_mixed`` request as a client saw it."""

    kind: str
    seconds: float
    rows: int
    ok: bool
    cached: int = 0
    computed: int = 0


@dataclass
class Phase:
    """What one timed phase did."""

    #: Seconds the phase's work took (the rows/s denominator).
    wall_s: float
    #: The traced window in ``perf_counter_ns`` (contains all the work).
    window_ns: Tuple[int, int]
    rows: int
    #: Rows on the sweeps, requests on ``serve_mixed``.
    attempted: int
    failed: int
    #: ``(kind, seconds)`` per request (per grid for sweeps).
    latencies: List[Tuple[str, float]]
    bytes_written: int = 0
    cached_rows: int = 0
    submitted_rows: int = 0
    computed_rows: int = 0


# --------------------------------------------------------------------------- #
# sweeps
# --------------------------------------------------------------------------- #
class Sweep:
    def __init__(self, name: str, mode: str, spec: SweepSpec, seed: int,
                 work: Path, gate: Gate) -> None:
        self.name, self.mode, self.spec = name, mode, spec
        self.work, self.gate = work, gate
        self._ids: Iterator[int] = iter(pool_order(seed, spec.pool))

    def key(self, grid_id: int) -> str:
        return f"{self.mode}/{self.name}/{grid_id}"

    def _run(self, grid_id: int):
        path = Path(tempfile.mkdtemp(dir=self.work))
        with ResultStore(path) as store:
            rows = run_grid(self.spec.grid(grid_id), backend=self.spec.backend,
                            jobs=1, store=store, strict=False)
        return rows, path

    def setup(self) -> List[float]:
        """Warm-up grids on disjoint ids; returns each repetition's seconds."""
        times = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            rows, _path = self._run(WARMUP_ID + rep)
            times.append(time.perf_counter() - start)
            self.gate.check_grid(self.key(WARMUP_ID + rep), list(rows))
        return times

    def phase(self, seconds: float) -> Phase:
        """Cold grids, each into a fresh store, until the grid boundary
        nearest to ``seconds``; one grid is one request."""
        grids = []
        latencies: List[Tuple[str, float]] = []
        start_ns = time.perf_counter_ns()
        for grid_id in self._ids:
            last = latencies[-1][1] if latencies else 0.0
            if (time.perf_counter_ns() - start_ns) / 1e9 + last / 2 >= seconds:
                break
            begin = time.perf_counter()
            rows, path = self._run(grid_id)
            latencies.append(("grid", time.perf_counter() - begin))
            grids.append((grid_id, rows, path))
        end_ns = time.perf_counter_ns()

        rows_total = failed = written = 0
        for grid_id, rows, path in grids:
            rows = list(rows)
            self.gate.check_grid(self.key(grid_id), rows, self.spec.rows_per_grid)
            rows_total += len(rows)
            failed += sum(row.status != "ok" for row in rows)
            written += dir_bytes(path)
        if not grids:
            self.gate.fail(f"{self.name}: no grid left in the pool")
        return Phase(wall_s=(end_ns - start_ns) / 1e9, window_ns=(start_ns, end_ns),
                     rows=rows_total, attempted=rows_total,
                     failed=failed, latencies=latencies, bytes_written=written)


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #
def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def _table(rows: Any) -> List[Tuple[Any, ...]]:
    """Every field of every row, ``backend`` included, as tuples in row order.

    Read from the result set's columns, which is much cheaper than comparing
    materialized rows; optional ints keep ``None``."""
    columns = []
    for name in rows.fields:
        column = rows.column(name)
        if column.dtype.kind == "f":  # an optional int: NaN marks None
            values, valid = rows.column_with_mask(name)
            columns.append([v if ok else None
                            for v, ok in zip(values.tolist(), valid.tolist())])
        else:
            columns.append(column.tolist())
    return list(zip(*columns))


def _serve(path: str, backend: str, conn: Any) -> None:
    """Child process: a harness on ``path`` until the parent says stop (or
    goes away), then the spans and counts it traced, if the tracer was
    installed when the child was forked."""
    active = tracer.ACTIVE
    if active is not None:
        active.reset()
    try:
        with ServiceHarness(path, workers=1, backend=backend) as harness:
            conn.send(("address", harness.address))
            with contextlib.suppress(EOFError):
                conn.recv()
        conn.send(("done", (active.spans, active.counts) if active else None))
    except Exception as exc:
        with contextlib.suppress(OSError):
            conn.send(("error", f"{type(exc).__name__}: {exc}"))


def _receive(conn: Any, kind: str, timeout: float) -> Any:
    if not conn.poll(timeout):
        raise RuntimeError(f"serving process sent no {kind} in {timeout:.0f}s")
    got, value = conn.recv()
    if got != kind:
        raise RuntimeError(f"serving process: {value}")
    return value


@contextlib.contextmanager
def served(path: Path, backend: str) -> Iterator[str]:
    """A ``ServiceHarness`` on ``path`` in a forked child; yields its address.

    The client and the server then hold no interpreter lock in common.  A
    child forked while the tracer is installed traces into its own copy,
    which is merged into the parent's when the child stops.  The child is
    stopped and waited for on every way out."""
    context = multiprocessing.get_context("fork")
    conn, child_conn = context.Pipe()
    child = context.Process(target=_serve, args=(str(path), backend, child_conn),
                            name="bench-server", daemon=True)
    child.start()
    child_conn.close()
    try:
        yield _receive(conn, "address", 60)
        conn.send("stop")
        traced = _receive(conn, "done", 120)
        if traced is not None and tracer.ACTIVE is not None:
            tracer.ACTIVE.merge(*traced, origin="server")
    finally:
        conn.close()
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join()


class Serve:
    def __init__(self, name: str, mode: str, spec: ServeSpec, seed: int,
                 work: Path, gate: Gate) -> None:
        self.name, self.mode, self.spec = name, mode, spec
        self.work, self.gate = work, gate
        self._prefill_ids = pool_order(seed, spec.prefill_pool)
        self._cold_ids = iter(pool_order(seed, spec.cold_pool))
        self.prefill_dir: Optional[Path] = None
        self.prefill_id = -1
        self.prefill_rows: Any = None

    def key(self, kind: str, grid_id: int) -> str:
        return f"{self.mode}/{self.name}/{kind}/{grid_id}"

    def setup(self) -> List[float]:
        """Into a fresh store: a warm-up grid on a disjoint id, then the
        pre-fill; start the serving process, send one warm request of each
        read kind, stop it.  Repeated; the last store is the one the phases
        copy.

        Set-up writes each store once and the warm requests only read, so no
        sidecar index is rewritten (see ``Serve.phase``)."""
        spec = self.spec
        # The client and the serving child (which inherits both settings)
        # take turns on one CPU, as batch tasks: a woken task does not preempt
        # the running one, so the server streams rows until it blocks and the
        # client then reads them together.  With a CPU each, or with wake-up
        # preemption, they switch once or more per row frame (about ten
        # times as many context switches), and the host's scheduler gets a
        # say in every one of them.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        times = []
        for rep in range(SETUP_REPS):
            grid_id = self._prefill_ids[rep % len(self._prefill_ids)]
            path = Path(tempfile.mkdtemp(dir=self.work))
            start = time.perf_counter()
            with ResultStore(path) as store:
                warmup = run_grid(spec.cold(WARMUP_ID + rep), backend=spec.backend,
                                  jobs=1, store=store, strict=False)
                rows = run_grid(spec.prefill(grid_id), backend=spec.backend,
                                jobs=1, store=store, strict=False)
            with served(path, spec.backend) as address:
                with ServiceClient(address) as client:
                    client.submit(spec.prefill(grid_id), backend=spec.backend,
                                  window=spec.window)
                    client.query(**spec.queries[0], window=spec.window)
                    client.aggregate("completion_round", **spec.aggregate_args())
            times.append(time.perf_counter() - start)
            self.gate.check_grid(self.key("cold", WARMUP_ID + rep), list(warmup))
            self.gate.check_grid(self.key("prefill", grid_id), list(rows),
                                 len(spec.schemes) * len(spec.families)
                                 * len(spec.sizes) * spec.seeds)
            self.prefill_dir, self.prefill_id, self.prefill_rows = path, grid_id, rows
        self._expect()
        return times

    def _expect(self) -> None:
        """Answers every warm request must reproduce exactly."""
        spec = self.spec
        rows = self.prefill_rows
        self.expected_warm = _table(rows)
        self.expected_queries = [Counter(_table(filter_result_set(rows, **q)))
                                 for q in spec.queries]
        with ResultStore(self.prefill_dir) as store:
            groups = aggregate_result_set(
                filter_result_set(store.rows(), sizes=spec.sizes),
                "completion_round", ("scheme", "family"))
        self.expected_aggregate = _canonical(groups)

    def _send(self, client: ServiceClient, kind: str, cold_id: Optional[int]) -> Any:
        spec = self.spec
        if kind == "warm":
            return client.submit(spec.prefill(self.prefill_id), backend=spec.backend,
                                 window=spec.window)
        if kind == "cold":
            return client.submit(spec.cold(cold_id), backend=spec.backend,
                                 window=spec.window)
        if kind == "aggregate":
            return client.aggregate("completion_round", **spec.aggregate_args())
        return client.query(**spec.queries[int(kind[-1])], window=spec.window)

    def _right(self, kind: str, result: Any, summary: Dict[str, Any]) -> bool:
        """Whether a request's answer is the expected one (cold rows are
        checked against their digests after the loop)."""
        if kind == "warm":
            return (summary.get("cached") == len(self.expected_warm)
                    and summary.get("computed") == 0
                    and _table(result) == self.expected_warm)
        if kind == "cold":
            return summary.get("cached") == 0 and summary.get("computed") == len(result)
        if kind == "aggregate":
            return _canonical(result) == self.expected_aggregate
        return Counter(_table(result)) == self.expected_queries[int(kind[-1])]

    def phase(self, seconds: float) -> Phase:
        """The client's closed loop against a fresh copy of the pre-filled
        store.  Cold rows dirty the copy's shards; the harness rewrites
        their sidecar indexes when it stops, after the timed loop."""
        spec = self.spec
        path = Path(tempfile.mkdtemp(dir=self.work)) / "store"
        shutil.copytree(self.prefill_dir, path)
        before = dir_bytes(path)
        records: List[Request] = []
        colds: List[Tuple[int, List[Any]]] = []
        problems: List[str] = []
        # One request in ten is a warm submit, the slowest kind: the slowest
        # 5 % of requests are then about the slower half of the warm submits,
        # so the p95 reads near their median rather than in their tail.
        cycle = itertools.cycle(["warm", *["query0", "aggregate", "query1"] * 3])
        with served(path, spec.backend) as address, ServiceClient(address) as client:
            start_ns = time.perf_counter_ns()
            loop_start = start_ns / 1e9
            deadline = loop_start + seconds
            due = loop_start + spec.cold_interval_s / 2
            while True:
                begin = time.perf_counter()
                if begin >= deadline:
                    break
                cold_id = None
                if begin >= due:
                    due += spec.cold_interval_s
                    cold_id = next(self._cold_ids, None)
                kind = "cold" if cold_id is not None else next(cycle)
                try:
                    result = self._send(client, kind, cold_id)
                except Exception as exc:  # a failed request is counted, not fatal
                    end = time.perf_counter()
                    records.append(Request(kind, end - begin, 0, False))
                    problems.append(f"{kind}: {type(exc).__name__}: {exc}")
                    continue
                end = time.perf_counter()
                summary = client.last_summary
                ok = self._right(kind, result, summary)
                if not ok:
                    problems.append(f"{kind}: answer differs from the expected one")
                if kind == "cold":
                    colds.append((cold_id, list(result)))
                if kind in ("warm", "cold"):
                    records.append(Request(kind, end - begin, len(result), ok,
                                           summary["cached"], summary["computed"]))
                else:
                    records.append(Request(kind, end - begin,
                                           0 if kind == "aggregate" else len(result), ok))
            end_ns = time.perf_counter_ns()
            loop_end = end_ns / 1e9
        written = dir_bytes(path) - before

        for problem in problems[:10]:
            self.gate.fail(f"{self.name}: {problem}")
        if self.mode == "full" and len(records) < MIN_REQUESTS:
            self.gate.fail(f"{self.name}: {len(records)} requests; a p95 needs "
                           f"at least {MIN_REQUESTS}")
        for cold_id, rows in colds:
            self.gate.check_grid(self.key("cold", cold_id), rows, len(spec.schemes))
        submitted = [r for r in records if r.kind in ("warm", "cold")]
        return Phase(
            wall_s=loop_end - loop_start, window_ns=(start_ns, end_ns),
            rows=sum(r.rows for r in records),
            attempted=len(records), failed=sum(not r.ok for r in records),
            latencies=[(r.kind, r.seconds) for r in records if r.ok],
            bytes_written=written,
            cached_rows=sum(r.cached for r in submitted),
            submitted_rows=sum(r.rows for r in submitted),
            computed_rows=sum(r.computed for r in submitted),
        )


def make_workload(name: str, mode: str, seed: int, work: Path, gate: Gate):
    spec = SPECS[mode][name]
    cls = Serve if isinstance(spec, ServeSpec) else Sweep
    return cls(name, mode, spec, seed, work, gate)


def record_keys(mode: str) -> Iterator[Tuple[str, GridConfig, str]]:
    """Every grid ``mode`` can run: ``(golden key, config, backend)``."""
    warmups = [WARMUP_ID + rep for rep in range(SETUP_REPS)]
    for name, spec in SPECS[mode].items():
        if isinstance(spec, SweepSpec):
            for grid_id in [*range(spec.pool), *warmups]:
                yield f"{mode}/{name}/{grid_id}", spec.grid(grid_id), spec.backend
        else:
            for grid_id in range(spec.prefill_pool):
                yield (f"{mode}/{name}/prefill/{grid_id}", spec.prefill(grid_id),
                       spec.backend)
            for grid_id in [*range(spec.cold_pool), *warmups]:
                yield f"{mode}/{name}/cold/{grid_id}", spec.cold(grid_id), spec.backend


def machine() -> Dict[str, Any]:
    import platform

    import numpy

    from repro.backends import jit_available

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "jit_available": bool(jit_available())}
