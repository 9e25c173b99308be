"""End-to-end pipeline benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sweep_large --seed 1 --seconds 15 --trace 0

runs one workload through the public pipeline (graph generation, labels,
task build, round kernel, outcome, row, store, serve), checks every output
with the correctness gate, and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
first runs the same timed phase untraced, then once more with every layer's
entry points wrapped (``perfbench/tracer.py``), and reports per-layer self
times and counts plus the tracing overhead.  ``--quick`` runs tiny versions
of the workloads.  Exits 1 when a check fails, 2 when the program's sources
are missing.  The run's stores are removed after the result line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
}

#: Per-layer metrics: name -> (unit, the end-to-end metric and workload it
#: should move).
PER_LAYER = {
    "graphs.gen_s": ("s", "rows_per_s on sweep_large"),
    "graphs.instances": ("count", "rows_per_s on sweep_large"),
    "graphs.edges": ("count", "rows_per_s on sweep_large"),
    "core.label_s": ("s", "rows_per_s, peak_rss_mb on sweep_large"),
    "core.label_calls": ("count", "rows_per_s, peak_rss_mb on sweep_large"),
    "core.sequence_builds": ("count", "rows_per_s, peak_rss_mb on sweep_large"),
    "backends.kernel_s": ("s", "rows_per_s on sweep_long"),
    "backends.tasks": ("count", "rows_per_s on sweep_long"),
    "backends.batches": ("count", "rows_per_s on sweep_long"),
    "backends.rounds": ("count", "rows_per_s on sweep_long"),
    "backends.node_rounds": ("count", "rows_per_s on sweep_long"),
    "backends.fallbacks": ("count", "rows_per_s on sweep_long"),
    "api.task_s": ("s", "rows_per_s on sweep_long"),
    "api.derive_s": ("s", "rows_per_s on sweep_long"),
    "analysis.row_s": ("s", "rows_per_s on sweep_long"),
    "store.open_s": ("s", "rows_per_s on sweeps, setup_s on serve_mixed"),
    "store.put_s": ("s", "rows_per_s on sweeps, setup_s on serve_mixed"),
    "store.puts": ("count", "rows_per_s on sweeps, setup_s on serve_mixed"),
    "store.bytes_written": ("bytes", "rows_per_s on sweeps, setup_s on serve_mixed"),
    "store.get_s": ("s", "req_p50_ms on serve_mixed"),
    "store.gets": ("count", "req_p50_ms on serve_mixed"),
    "service.self_s": ("s", "req_p50_ms, req_p95_ms on serve_mixed"),
    "service.submit_warm_ms": ("ms", "req_p50_ms, req_p95_ms on serve_mixed"),
    "service.submit_cold_ms": ("ms", "req_p50_ms, req_p95_ms on serve_mixed"),
    "service.query_ms": ("ms", "req_p50_ms, req_p95_ms on serve_mixed"),
    "service.aggregate_ms": ("ms", "req_p50_ms, req_p95_ms on serve_mixed"),
    "service.cache_hit_ratio": ("ratio", "req_p50_ms, req_p95_ms on serve_mixed"),
    "service.computed_rows": ("count", "req_p50_ms, req_p95_ms on serve_mixed"),
    "analysis.aggregate_s": ("s", "req_p50_ms, req_p95_ms on serve_mixed"),
    "other_s": ("s", "(time outside every wrapped call)"),
    "trace.overhead": ("ratio", "(traced wall / untraced wall per unit of work)"),
}

WORKLOADS = ("sweep_large", "sweep_long", "serve_mixed")
#: At most this share of the traced wall time may lie outside every wrapped
#: call (``other_s``).
COVERAGE_TOLERANCE = 0.05
#: Fresh interpreters timed importing the program; ``setup_s`` takes the
#: median.
IMPORT_REPS = 5
IMPORT_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
               "start = time.perf_counter(); import repro.api, repro.service; "
               "print(time.perf_counter() - start)")


def percentile(values, q):
    """The ``q``-quantile (linear interpolation); 0 when there are no values."""
    import numpy

    return float(numpy.quantile(values, q)) if values else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny instances of the same workloads")
    return parser.parse_args(argv)


def import_seconds():
    """Median seconds a fresh interpreter takes to import the program."""
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def coverage_problem(other_s, wall, clipped):
    """Why the traced spans do not account for the traced window, or None.

    The self times plus ``other_s`` equal the wall time by construction of
    ``attribute``, so their sum checks nothing.  What the data can break is
    coverage: more than ``COVERAGE_TOLERANCE`` of the wall time inside no
    wrapped call means work runs outside every layer's entry points, and a
    span crossing the window means the window misses work.
    """
    if other_s > COVERAGE_TOLERANCE * wall or clipped:
        return (f"trace: {other_s:.3f}s of {wall:.3f}s traced wall time inside "
                f"no wrapped call (at most {COVERAGE_TOLERANCE:.0%} allowed), "
                f"{clipped} spans crossed the window")
    return None


def end_to_end(phase, setup_times, import_s):
    latencies = [seconds for _kind, seconds in phase.latencies]
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "rows_per_s": phase.rows / phase.wall_s,
        # The largest process: this one, or serve_mixed's serving child.
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in
                           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
        "ok_frac": 1 - phase.failed / max(1, phase.attempted),
        "req_p50_ms": 1000 * percentile(latencies, 0.50),
        "req_p95_ms": 1000 * percentile(latencies, 0.95),
    }


def per_layer(untraced, traced, tracer, gate):
    from perfbench.tracer import SPAN_KINDS, attribute, layer_of

    start_ns, end_ns = traced.window_ns
    wall = (end_ns - start_ns) / 1e9
    self_s, other_s, clipped = attribute(tracer.spans, start_ns, end_ns)
    problem = coverage_problem(other_s, wall, clipped)
    if problem:
        gate.fail(problem)

    def p50_ms(prefix):
        return 1000 * percentile(
            [s for k, s in traced.latencies if k.startswith(prefix)], 0.5)

    untraced_wall = (untraced.window_ns[1] - untraced.window_ns[0]) / 1e9
    metrics = {kind: self_s.get(kind, 0.0) for kind in SPAN_KINDS}
    metrics.update(tracer.counts)
    metrics.update({
        "store.bytes_written": traced.bytes_written,
        "service.submit_warm_ms": p50_ms("warm"),
        "service.submit_cold_ms": p50_ms("cold"),
        "service.query_ms": p50_ms("query"),
        "service.aggregate_ms": p50_ms("aggregate"),
        "service.cache_hit_ratio": traced.cached_rows / max(1, traced.submitted_rows),
        "service.computed_rows": traced.computed_rows,
        "other_s": other_s,
        "trace.overhead": (wall / max(1, traced.attempted))
        / (untraced_wall / max(1, untraced.attempted)),
    })
    layers = {}
    for kind in SPAN_KINDS:
        layers[layer_of(kind)] = layers.get(layer_of(kind), 0.0) + metrics[kind]
    return metrics, wall, layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=ROOT / ".perfbench_work"))
    try:
        return measure(args, work)
    finally:
        # Outside every timed window and set-up measurement: on a disk that
        # discards freed blocks, unlinking a store costs seconds.
        sys.stdout.flush()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    """Set up, run the timed phase(s), check and print; the exit code."""
    from perfbench.gate import Gate, load_golden
    from perfbench.tracer import Tracer
    from perfbench.workloads import SPECS, machine, make_workload

    import_s = import_seconds()
    mode = "quick" if args.quick else "full"
    gate = Gate(load_golden())
    workload = make_workload(args.workload, mode, args.seed, work, gate)
    setup_times = workload.setup()
    first = workload.phase(args.seconds)
    if args.trace:
        spec = SPECS[mode][args.workload]
        tracer = Tracer()
        tracer.install(backends=(spec.backend,))
        try:
            traced = workload.phase(args.seconds)
        finally:
            tracer.uninstall()
        metrics, wall, layers = per_layer(first, traced, tracer, gate)
        phases = (first, traced)
        units = {name: PER_LAYER[name][0] for name in PER_LAYER}
    else:
        metrics = end_to_end(first, setup_times, import_s)
        phases = (first,)
        units = END_TO_END

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = gate.ok and failed == 0
    for failure in gate.failures:
        print(f"FAIL {failure}")
    print(f"workload {args.workload} ({mode}) seed {args.seed}: "
          f"{gate.checked_rows} rows and {gate.checked_grids} grids checked, "
          f"correct={correct}")
    if args.trace:
        print(f"traced wall {wall:.3f}s; self time by layer: " + ", ".join(
            f"{layer} {seconds:.3f}s" for layer, seconds in
            sorted(layers.items(), key=lambda item: -item[1])))
        for name, (unit, moves) in PER_LAYER.items():
            print(f"  {name:26s} {metrics[name]:>14.6g} {unit:6s} -> {moves}")
    else:
        kinds = sorted({kind for kind, _seconds in first.latencies})
        print(f"latency samples: {len(first.latencies)} ({', '.join(kinds)}); "
              f"import {import_s:.3f}s (median of {IMPORT_REPS}); "
              f"setup repetitions: {', '.join(f'{t:.3f}s' for t in setup_times)}")
        for name, unit in END_TO_END.items():
            print(f"  {name:12s} {metrics[name]:>12.6g} {unit}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
