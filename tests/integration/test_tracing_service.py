"""Integration tests for end-to-end causal tracing of the serving path.

The acceptance bar (ISSUE 10):

* a traced submission's result carries ``trace_id`` and its spans tell
  the causal story (resolve -> execute -> run_spec -> restore);
* tracing off leaves the served payload byte-identical to a direct
  ``run_spec()`` — no ``trace_id`` key, nothing else perturbed;
* span traces are byte-identical across runs once wall fields are
  stripped;
* the ``metrics`` op's deterministic snapshot agrees exactly with
  ``SweepService.counters()``;
* a wire-v1 frame is answered with a typed ``error`` frame.
"""

import asyncio
import json
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.simulator import make_run_spec, run_spec, sweep_specs
from repro.service import (
    ServiceClient,
    SweepService,
    ThreadBackend,
    serve_in_thread,
)
from repro.telemetry import ChromeTraceSink, strip_span_walls
from repro.telemetry.wire import decode_frame
from repro.tracing import TRACE_ID_LEN, JobTrace, mint_trace_id

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "validate_trace.py"


def _spec(scenario="per_bank", workload="WL-9", **extra):
    return make_run_spec(workload, scenario, **{**FAST, **extra})


def _canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture
def live(tmp_path):
    service = SweepService(
        backend=ThreadBackend(jobs=2), cache_dir=tmp_path / "cache"
    )
    server, thread = serve_in_thread(service)
    yield server, service
    server.stop()
    thread.join(timeout=10)
    service.backend.close()


def _by_name(spans):
    return {span.name: span for span in spans}


def test_traced_submit_stamps_result_and_tells_the_causal_story(live):
    server, service = live
    spec = _spec()
    spans = []
    with ServiceClient(port=server.port) as client:
        result, source = client.submit(spec, on_span=spans.append)
    assert source == "executed"
    assert result.trace_id is not None
    assert len(result.trace_id) == TRACE_ID_LEN
    assert spans, "expected streamed span frames"
    assert all(s.trace_id == result.trace_id for s in spans)
    named = _by_name(spans)
    # The execute chain parents cleanly: resolve -> execute -> run_spec.
    assert {"resolve", "execute", "run_spec"} <= set(named)
    assert named["resolve"].parent is None
    assert named["execute"].parent == named["resolve"].span_id
    assert named["run_spec"].parent == named["execute"].span_id
    # Span ids were allocated in open order.
    assert named["resolve"].span_id == 0
    assert named["execute"].span_id == 1
    assert named["run_spec"].span_id == 2
    assert named["resolve"].detail == "executed"
    assert named["resolve"].cycles == result.simulated_cycles
    # The service kept the spans for the obs dashboard.
    assert len(service.recent_spans) == len(spans)


def test_untraced_payload_byte_identical_traced_adds_only_trace_id(live):
    server, _service = live
    spec = _spec()
    local = run_spec(spec)
    with ServiceClient(port=server.port) as client:
        plain, _ = client.submit(spec)
        traced, t_source = client.submit(spec, trace=True)
    assert t_source == "memo"
    # Tracing off: byte-identical, no trace_id key anywhere.
    assert _canon(plain) == _canon(local)
    assert "trace_id" not in plain.to_dict()
    # Tracing on: identical except the one extra key.
    traced_dict = traced.to_dict()
    assert traced_dict.pop("trace_id") == traced.trace_id
    assert json.dumps(traced_dict, sort_keys=True) == _canon(local)


def test_warm_start_execute_span_parents_restore_span(live):
    """Satellite: the restore span nests under run_spec under execute."""
    server, _service = live
    (spec,) = sweep_specs(
        ["WL-9"], ["codesign"], warmup_scenario="per_bank", **FAST
    )
    spans = []
    with ServiceClient(port=server.port) as client:
        result, source = client.submit(spec, on_span=spans.append)
    assert source == "executed"
    named = _by_name(spans)
    assert {"resolve", "execute", "run_spec", "restore"} <= set(named)
    assert named["restore"].parent == named["run_spec"].span_id
    assert named["run_spec"].parent == named["execute"].span_id
    assert named["execute"].parent == named["resolve"].span_id
    # The restore span records the checkpoint provenance (key@cycle).
    assert "@" in named["restore"].detail
    assert all(s.trace_id == result.trace_id for s in spans)


def test_dedup_joined_clients_observe_the_executors_trace_id(tmp_path):
    """Satellite: all five concurrent traced submissions share the trace
    id of the one that actually executed."""
    service = SweepService(
        backend=ThreadBackend(jobs=2), cache_dir=tmp_path
    )
    spec = _spec("all_bank")
    job = spec.content_hash()
    events = []
    traces = [
        JobTrace(mint_trace_id("client", i), job, events.append)
        for i in range(5)
    ]

    async def fan_out():
        return await asyncio.gather(
            *(service.resolve(spec, trace=t) for t in traces)
        )

    outcomes = asyncio.run(fan_out())
    sources = sorted(source for _, source in outcomes)
    assert sources == ["dedup"] * 4 + ["executed"]
    stamped = {result.trace_id for result, _ in outcomes}
    assert len(stamped) == 1, "every joiner sees the executor's trace id"
    executor_trace = next(
        t.trace_id
        for t, (_, source) in zip(traces, outcomes)
        if source == "executed"
    )
    assert stamped == {executor_trace}
    # A later memo hit of the same key inherits it too.
    late = JobTrace(mint_trace_id("late", 9), job, events.append)
    result, source = asyncio.run(service.resolve(spec, trace=late))
    assert source == "memo"
    assert result.trace_id == executor_trace
    service.backend.close()


def test_metrics_op_matches_counters_exactly(live):
    server, service = live
    spec_a, spec_b = _spec("per_bank"), _spec("all_bank")
    with ServiceClient(port=server.port) as client:
        client.submit(spec_a)
        client.submit(spec_a)          # memo
        client.submit(spec_b)
        client.submit(spec_b, stream=True, on_event=lambda e, j: None)
        metrics = client.metrics()
        counters = client.status()
    assert counters == service.counters()
    tiers = metrics["deterministic"]["tiers"]
    # The deterministic tier counts ARE the service counters, relabeled.
    assert tiers["executed"] + tiers["live"] == counters["runs_executed"]
    assert tiers["memo"] == counters["memo_hits"]
    assert tiers["dedup"] == counters["dedup_hits"]
    assert tiers["cache"] == counters["disk_hits"]
    assert tiers["live"] == counters["live_runs"]
    # No wall-clock field hides anywhere in the deterministic subtree.
    assert set(metrics["deterministic"]) == {"tiers", "cycles"}
    assert "wall" not in json.dumps(metrics["deterministic"])
    # The Prometheus text carries the same numbers.
    text = metrics["text"]
    for tier in ("executed", "memo", "live"):
        assert (
            f'repro_service_requests_total{{tier="{tier}"}} {tiers[tier]}'
            in text
        )
    assert (
        f'repro_service_counter{{name="runs_executed"}} '
        f'{counters["runs_executed"]}' in text
    )


def test_stripped_span_trace_byte_identical_across_fresh_servers(tmp_path):
    """Two fresh servers, same submission sequence: the span traces agree
    byte-for-byte once wall fields are stripped."""

    def run_sequence(cache_dir):
        service = SweepService(
            backend=ThreadBackend(jobs=2), cache_dir=cache_dir
        )
        server, thread = serve_in_thread(service)
        try:
            sink = ChromeTraceSink()
            with ServiceClient(port=server.port) as client:
                first = client.sweep(specs=[_spec()], trace=True)
                second = client.sweep(specs=[_spec()], trace=True)
            for span in first.spans + second.spans:
                sink.emit(span)
            return json.dumps(
                strip_span_walls(sink.trace()), sort_keys=True
            )
        finally:
            server.stop()
            thread.join(timeout=10)
            service.backend.close()

    a = run_sequence(tmp_path / "a")
    b = run_sequence(tmp_path / "b")
    assert a == b
    assert '"cat": "span"'.replace(" ", "") in a.replace(" ", "")


def test_wire_v1_client_gets_an_error_frame(live):
    """The server speaks one wire version; a v1 frame is refused."""
    server, _service = live
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(b'{"id":1,"op":"ping","v":1}\n')
        reply = decode_frame(sock.makefile("rb").readline())
    assert reply["type"] == "error"
    assert reply["id"] is None
    assert "wire schema mismatch" in reply["error"]


def test_trace_spans_artifact_validates_with_expect_spans(live, tmp_path):
    """The CLI-shaped artifact passes scripts/validate_trace.py."""
    server, _service = live
    with ServiceClient(port=server.port) as client:
        outcome = client.sweep(specs=[_spec()], trace=True)
    assert outcome.ok and outcome.spans
    sink = ChromeTraceSink()
    for span in outcome.spans:
        sink.emit(span)
    out = tmp_path / "spans-trace.json"
    sink.write(out)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(out), "--expect-spans"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
