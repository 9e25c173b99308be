"""Tests of the benchmark itself: metric names and units, the correctness
gate, the tracer's attribution and patching.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.api import run_grid  # noqa: E402

from perfbench.gate import Gate, load_golden, rows_digest  # noqa: E402
from perfbench.run import coverage_problem  # noqa: E402
from perfbench.tracer import Tracer, attribute  # noqa: E402
from perfbench import tracer as tracer_module  # noqa: E402
from perfbench.workloads import SPECS, served  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_run_emits_every_named_metric_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_run_without_program_sources_fails_without_a_result():
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", work)
        shutil.copytree(ROOT / "perfbench", work / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench("--workload", "sweep_long", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=work)
    finally:
        shutil.rmtree(work)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.fixture(scope="module")
def quick_grid():
    spec = SPECS["quick"]["sweep_large"]
    return "quick/sweep_large/0", list(run_grid(spec.grid(0), backend=spec.backend))


def test_gate_accepts_the_recorded_rows(quick_grid):
    key, rows = quick_grid
    gate = Gate(load_golden())
    gate.check_grid(key, rows, len(rows))
    assert gate.ok, gate.failures


@pytest.mark.parametrize("scheme, change, message", [
    ("lambda", lambda r: {"completion_round": 2 * r.n}, "Theorem 2.9"),
    ("lambda_ack", lambda r: {"acknowledgement_round": r.completion_round},
     "Theorem 3.9"),
    ("lambda_arb", lambda r: {"label_bits": 4}, "4-bit labels"),
    ("lambda", lambda r: {"status": "error:ValueError"}, "status"),
])
def test_gate_rejects_a_row_breaking_a_paper_bound(quick_grid, scheme, change,
                                                   message):
    key, rows = quick_grid
    index = next(i for i, r in enumerate(rows) if r.scheme == scheme)
    bad = list(rows)
    bad[index] = dataclasses.replace(rows[index], **change(rows[index]))
    gate = Gate(load_golden())
    gate.check_grid(key, bad, len(bad))
    assert any(message in failure for failure in gate.failures), gate.failures


def test_gate_rejects_a_changed_row_or_digest_but_not_a_backend_tag(quick_grid):
    key, rows = quick_grid
    golden = load_golden()

    retagged = [dataclasses.replace(r, backend="reference") for r in rows]
    assert rows_digest(retagged) == golden[key]

    changed = list(rows)
    changed[0] = dataclasses.replace(rows[0], transmissions=rows[0].transmissions + 1)
    gate = Gate(golden)
    gate.check_grid(key, changed)
    assert gate.failures == [f"{key}: digest differs from the recorded one"]

    corrupted = dict(golden, **{key: "0" * 64})
    gate = Gate(corrupted)
    gate.check_grid(key, rows)
    assert not gate.ok

    gate = Gate(golden)
    gate.check_grid("quick/sweep_large/unrecorded", rows)
    assert gate.failures == ["quick/sweep_large/unrecorded: no recorded digest"]


def test_attribution_is_self_time_on_one_thread():
    spans = [("core.label_s", 1, 20, 60),      # child of the backend span
             ("backends.kernel_s", 1, 10, 100),
             ("store.put_s", 1, 120, 130)]
    self_s, other, clipped = attribute(spans, 0, 200)
    assert self_s == pytest.approx({"core.label_s": 40e-9,
                                    "backends.kernel_s": 50e-9,
                                    "store.put_s": 10e-9})
    assert other == pytest.approx(100e-9) and clipped == 0


def test_attribution_yields_waiting_client_spans_to_server_work():
    spans = [("service.self_s", 1, 0, 100),    # client waiting on the server
             ("store.get_s", 2, 20, 60),       # server thread
             ("service.self_s", 3, 50, 100)]   # a second client
    self_s, other, clipped = attribute(spans, 0, 120)
    assert self_s["store.get_s"] == pytest.approx(40e-9)
    assert self_s["service.self_s"] == pytest.approx(60e-9)
    assert other == pytest.approx(20e-9)
    assert sum(self_s.values()) + other == pytest.approx(120e-9)
    assert attribute(spans, 30, 120)[2] == 2


def test_coverage_check_fails_when_work_runs_outside_every_wrapped_call():
    spans = [("backends.kernel_s", 1, 0, 90), ("store.put_s", 1, 92, 97)]
    self_s, other, clipped = attribute(spans, 0, 100)
    assert coverage_problem(other, 100e-9, clipped) is None
    self_s, other, clipped = attribute(spans[:1], 0, 100)
    assert "inside no wrapped call" in coverage_problem(other, 100e-9, clipped)
    self_s, other, clipped = attribute(spans, 5, 100)
    assert coverage_problem(other, 95e-9, clipped) is not None


def test_install_wraps_every_layer_and_uninstall_restores_it():
    from repro.analysis import sweep
    from repro.api import get_scheme
    from repro.backends import resolve_backend
    from repro.store import ResultStore

    before = (sweep.materialize_instance, ResultStore.put,
              resolve_backend("vectorized").run_task)
    tracer = Tracer()
    tracer.install(backends=("vectorized",))
    try:
        assert hasattr(sweep.materialize_instance, "__wrapped__")
        assert hasattr(get_scheme("lambda").build_labels, "__wrapped__")
        spec = SPECS["quick"]["sweep_long"]
        run_grid(spec.grid(0), backend="vectorized")
    finally:
        tracer.uninstall()
    assert (sweep.materialize_instance, ResultStore.put,
            resolve_backend("vectorized").run_task) == before
    assert "build_labels" not in vars(get_scheme("lambda"))
    rows = spec.rows_per_grid
    assert tracer.counts["backends.tasks"] == rows
    assert tracer.counts["core.label_calls"] == rows
    assert tracer.counts["backends.fallbacks"] == 0
    assert tracer.counts["graphs.instances"] == rows // len(spec.schemes)


def test_merged_spans_are_threads_of_their_own():
    tracer = Tracer()
    tracer.spans.append(("service.self_s", 7, 0, 100))
    tracer.merge([("store.get_s", 7, 20, 60)], {"store.gets": 3}, origin="server")
    self_s, other, _clipped = attribute(tracer.spans, 0, 100)
    assert self_s == pytest.approx({"store.get_s": 40e-9, "service.self_s": 60e-9})
    assert other == 0 and tracer.counts["store.gets"] == 3


def test_serving_child_traces_into_the_parent_and_always_stops(tmp_path):
    from repro.service import ServiceClient

    tracer = Tracer()
    tracer.install(backends=("batched",))
    try:
        with served(tmp_path / "store", "batched") as address:
            with ServiceClient(address) as client:
                client.query(schemes=["lambda"])
    finally:
        tracer.uninstall()
    assert tracer_module.ACTIVE is None
    kinds = {(kind, isinstance(thread, tuple)) for kind, thread, *_ in tracer.spans}
    assert ("service.self_s", False) in kinds   # the client, in this process
    assert ("store.open_s", True) in kinds      # the server, merged from the child
    assert not multiprocessing.active_children()

    with pytest.raises(RuntimeError, match="client failed"):
        with served(tmp_path / "store", "batched"):
            assert multiprocessing.active_children()
            raise RuntimeError("client failed")
    assert not multiprocessing.active_children()
