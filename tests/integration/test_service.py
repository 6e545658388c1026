"""Integration tests for the sweep service.

The acceptance bar for the service layer:

* **Concurrent dedup** — N identical submissions (same spec content
  hash), from coroutines or from separate socket clients, execute
  exactly one simulation.
* **Byte-identity** — a served result is byte-identical to a direct
  local ``run_spec()`` of the same spec, on every resolution path
  (executed / dedup / memo / cache / live-streamed / monitored /
  warm-started).
"""

import asyncio
import gc
import json
import threading
import time
import weakref
from concurrent.futures import Future

import pytest

import repro
from repro.core.runspec import RunSpec
from repro.core.simulator import make_run_spec, run_spec, sweep_specs
from repro.errors import ServiceError
from repro.experiments.cache import ResultCache
from repro.service import (
    InlineBackend,
    ServiceClient,
    SweepService,
    ThreadBackend,
    serve_in_thread,
)
from repro.service import server as server_module
from repro.telemetry.wire import encode_frame

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)


def _spec(scenario="per_bank", workload="WL-9", **extra):
    return make_run_spec(workload, scenario, **{**FAST, **extra})


def _canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


# -- SweepService (job engine, no sockets) -------------------------------------


def test_resolve_matches_direct_run_spec(tmp_path):
    service = SweepService(cache_dir=tmp_path)
    spec = _spec()
    result, source = asyncio.run(service.resolve(spec))
    assert source == "executed"
    assert _canon(result) == _canon(run_spec(spec))


def test_concurrent_identical_submissions_run_once(tmp_path):
    """The tentpole guarantee: N concurrent submissions, one simulation."""
    service = SweepService(
        backend=ThreadBackend(jobs=2), cache_dir=tmp_path
    )
    spec = _spec()

    async def fan_out():
        return await asyncio.gather(
            *(service.resolve(spec) for _ in range(5))
        )

    outcomes = asyncio.run(fan_out())
    sources = sorted(source for _, source in outcomes)
    assert sources == ["dedup"] * 4 + ["executed"]
    assert service.runs_executed == 1
    assert service.dedup_hits == 4
    expected = _canon(run_spec(spec))
    assert all(_canon(result) == expected for result, _ in outcomes)

    # Traced fan-out over a distinct spec: the joiners' results carry
    # the trace id of the one submission that executed.
    from repro.tracing import JobTrace, mint_trace_id

    traced_spec = _spec("all_bank")
    job = traced_spec.content_hash()
    traces = [
        JobTrace(mint_trace_id("fan", i), job, lambda event: None)
        for i in range(5)
    ]

    async def traced_fan_out():
        return await asyncio.gather(
            *(service.resolve(traced_spec, trace=t) for t in traces)
        )

    traced = asyncio.run(traced_fan_out())
    assert sorted(s for _, s in traced) == ["dedup"] * 4 + ["executed"]
    executor_trace = next(
        t.trace_id
        for t, (_, source) in zip(traces, traced)
        if source == "executed"
    )
    assert {r.trace_id for r, _ in traced} == {executor_trace}


def test_memo_then_disk_cache_tiers(tmp_path):
    spec = _spec()
    service = SweepService(cache_dir=tmp_path)
    _, first = asyncio.run(service.resolve(spec))
    _, second = asyncio.run(service.resolve(spec))
    assert (first, second) == ("executed", "memo")
    # A fresh service over the same cache dir hits the disk tier.
    rebooted = SweepService(cache_dir=tmp_path)
    result, third = asyncio.run(rebooted.resolve(spec))
    assert third == "cache"
    assert _canon(result) == _canon(run_spec(spec))
    assert rebooted.runs_executed == 0


def test_distinct_specs_do_not_dedup(tmp_path):
    service = SweepService(cache_dir=tmp_path)

    async def both():
        return await asyncio.gather(
            service.resolve(_spec("per_bank")),
            service.resolve(_spec("all_bank")),
        )

    outcomes = asyncio.run(both())
    assert [source for _, source in outcomes] == ["executed", "executed"]
    assert service.runs_executed == 2


def test_warm_started_spec_byte_identical(tmp_path):
    """Warm-start through the service's checkpoint store matches local."""
    (spec,) = sweep_specs(
        ["WL-9"], ["codesign"], warmup_scenario="per_bank", **FAST
    )
    service = SweepService(cache_dir=tmp_path)
    result, source = asyncio.run(service.resolve(spec))
    assert source == "executed"
    assert _canon(result) == _canon(run_spec(spec))
    # The warm-up prefix checkpoint landed in the service-wide store,
    # shared with the backend.
    assert service.backend.checkpoint_store is service.checkpoint_store


def test_monitored_jobs_never_alias_plain_ones(tmp_path):
    spec = _spec("codesign")
    service = SweepService(cache_dir=tmp_path)

    async def sequence():
        plain = await service.resolve(spec)
        monitored = await service.resolve(spec, monitors="collect")
        again = await service.resolve(spec, monitors="collect")
        return plain, monitored, again

    (plain, p_src), (mon, m_src), (again, a_src) = asyncio.run(sequence())
    assert (p_src, m_src, a_src) == ("executed", "live", "memo")
    assert mon.monitor_violations == []
    assert again.monitor_violations == []
    # Plain payloads never carry the monitor key; monitored ones do.
    assert "monitor_violations" not in plain.to_dict()
    assert "monitor_violations" in mon.to_dict()
    # Satellite: monitored traffic counts under its own counters and
    # never inflates the plain ones.
    counters = service.counters()
    assert counters["runs_executed"] == 1
    assert counters["memo_hits"] == 0
    assert counters["monitored_runs"] == 1
    assert counters["monitored_memo_hits"] == 1
    assert counters["monitored_dedup_hits"] == 0


# -- ServiceServer + ServiceClient (socket round-trips) ------------------------


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


def test_served_result_byte_identical(live):
    server, _service = live
    spec = _spec()
    with ServiceClient(port=server.port) as client:
        result, source = client.submit(spec)
    assert source == "executed"
    assert _canon(result) == _canon(run_spec(spec))


class _HoldUntilJoined(ThreadBackend):
    """Holds each run until a second submission has joined it, so two
    submissions are in flight together by construction."""

    service = None

    def _execute(self, spec, trace=None, parent=None):
        deadline = time.monotonic() + 60
        while self.service.dedup_hits < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        return super()._execute(spec, trace, parent)


@pytest.fixture
def held(tmp_path):
    backend = _HoldUntilJoined(jobs=2)
    service = SweepService(backend=backend, cache_dir=tmp_path / "cache")
    backend.service = service
    server, thread = serve_in_thread(service)
    yield server, service
    server.stop()
    thread.join(timeout=10)
    service.backend.close()


def test_two_socket_clients_dedup_one_simulation(held):
    """Two real clients, same spec, in flight together: one simulation."""
    server, service = held
    spec = _spec("codesign")
    outcomes = {}
    barrier = threading.Barrier(2)

    def submit(tag):
        with ServiceClient(port=server.port) as client:
            barrier.wait()
            outcomes[tag] = client.submit(spec)

    threads = [
        threading.Thread(target=submit, args=(t,)) for t in ("a", "b")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert set(outcomes) == {"a", "b"}
    sources = sorted(source for _, source in outcomes.values())
    assert sources == ["dedup", "executed"]
    assert service.runs_executed == 1
    payloads = {_canon(result) for result, _ in outcomes.values()}
    assert payloads == {_canon(run_spec(spec))}


def test_sweep_submission_and_counters(live):
    server, service = live
    specs = sweep_specs(["WL-9"], ["all_bank", "per_bank"], **FAST)
    with ServiceClient(port=server.port) as client:
        outcome = client.sweep(specs=specs)
        again = client.sweep(specs=specs)
    assert outcome.ok and again.ok
    assert [outcome.sources[j] for j in outcome.jobs] == ["executed"] * 2
    assert [again.sources[j] for j in again.jobs] == ["memo"] * 2
    assert again.counters["runs_executed"] == 2
    assert again.counters["memo_hits"] == 2
    for spec in specs:
        job = spec.content_hash()
        assert _canon(outcome.results[job]) == _canon(run_spec(spec))
        assert _canon(again.results[job]) == _canon(outcome.results[job])


def test_streamed_events_match_local_jsonl(live, tmp_path):
    """Telemetry streamed over the wire == a local JsonlSink, byte for byte."""
    from repro.telemetry import JsonlSink, Telemetry

    server, _service = live
    spec = _spec("per_bank")
    streamed = []
    with ServiceClient(port=server.port) as client:
        result, source = client.submit(
            spec, stream=True,
            on_event=lambda event, job: streamed.append(event),
        )
    assert source == "live"
    assert streamed, "expected live telemetry frames"

    local_path = tmp_path / "local.jsonl"
    telemetry = Telemetry()
    telemetry.subscribe(JsonlSink(local_path))
    local_result = run_spec(spec, telemetry=telemetry)
    telemetry.close()

    streamed_lines = [
        json.dumps(event, sort_keys=True, separators=(",", ":"))
        for event in streamed
    ]
    local_lines = local_path.read_text().splitlines()
    assert streamed_lines == local_lines
    assert _canon(result) == _canon(local_result)


def test_ping_and_status_frames(live):
    server, _service = live
    with ServiceClient(port=server.port) as client:
        hello = client.ping()
        assert hello["wire"] == 2
        assert hello["version"] == repro.__version__
        assert hello["backend"] == "thread"
        counters = client.status()
    assert counters["runs_executed"] == 0
    assert counters["backend"] == "thread"


def test_server_side_matrix_decomposition(live):
    """The server can decompose workloads x scenarios itself."""
    server, _service = live
    options = dict(FAST)
    with ServiceClient(port=server.port) as client:
        outcome = client.sweep(
            workloads=["WL-9"],
            scenarios=["all_bank", "per_bank"],
            options=options,
        )
    assert outcome.ok
    specs = sweep_specs(["WL-9"], ["all_bank", "per_bank"], **FAST)
    assert outcome.jobs == [spec.content_hash() for spec in specs]


def test_sweep_frame_over_64_kib_is_answered_in_full(tmp_path):
    """A request line past asyncio's default 64 KiB reader limit (but
    within the wire's frame cap) is read and answered."""
    specs = sweep_specs(
        [f"WL-{n}" for n in range(1, 11)],
        ["all_bank", "per_bank", "codesign"],
        num_windows=0.02, warmup_windows=0.01, refresh_scale=1024,
    )
    request = {"op": "sweep", "specs": [spec.to_dict() for spec in specs]}
    assert len(encode_frame(request)) > 64 * 1024
    service = SweepService(backend=InlineBackend(), cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    try:
        with ServiceClient(port=server.port) as client:
            outcome = client.sweep(specs=specs)
    finally:
        server.stop()
        thread.join(timeout=10)
    assert outcome.ok
    assert outcome.jobs == [spec.content_hash() for spec in specs]
    assert sorted(outcome.results) == sorted(outcome.jobs)


def test_line_over_frame_limit_is_a_service_error(tmp_path, monkeypatch):
    """An oversized line is answered with an error frame, and the
    connection stays usable for the next request."""
    monkeypatch.setattr(server_module, "MAX_FRAME_BYTES", 4096)
    service = SweepService(backend=InlineBackend(), cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    try:
        with ServiceClient(port=server.port) as client:
            spec = _spec()
            with pytest.raises(ServiceError, match="exceeds 4096 bytes"):
                client.sweep(specs=[spec] * 8)
            assert client.ping()["type"] == "pong"
    finally:
        server.stop()
        thread.join(timeout=10)


def test_shutdown_via_client(tmp_path):
    service = SweepService(backend=InlineBackend(), cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    with ServiceClient(port=server.port) as client:
        client.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


# -- one hash per received spec ------------------------------------------------


def _serve(cache_dir):
    service = SweepService(backend=InlineBackend(), cache_dir=cache_dir)
    server, thread = serve_in_thread(service)
    return server, thread


def test_server_hashes_each_received_spec_once(tmp_path, hash_calls, monkeypatch):
    """A cold run, a memo submit and a restart-sweep run each compute
    the content hash of the spec they serve exactly once; a memo submit
    parses no spec."""
    workloads, scenarios = ["WL-9"], ["all_bank", "per_bank"]
    server, thread = _serve(tmp_path)
    try:
        with ServiceClient(port=server.port, timeout=60) as client:
            hash_calls.clear()
            cold = client.sweep(
                workloads=workloads, scenarios=scenarios, options=FAST
            )
            assert set(cold.sources.values()) == {"executed"}
            assert len(hash_calls) == 2  # one per cold run

            spec = _spec("all_bank")
            parses = []
            parse = RunSpec.from_dict.__func__
            monkeypatch.setattr(RunSpec, "from_dict", classmethod(
                lambda cls, data: parses.append(data) or parse(cls, data)
            ))
            hash_calls.clear()
            for _ in range(3):
                assert client.submit(spec)[1] == "memo"
            assert len(hash_calls) == 3  # one per memo submit
            assert parses == []  # the memo's spec is reused, not parsed
    finally:
        server.stop()
        thread.join(timeout=10)

    server, thread = _serve(tmp_path)
    try:
        with ServiceClient(port=server.port, timeout=60) as client:
            hash_calls.clear()
            restart = client.sweep(
                workloads=workloads, scenarios=scenarios, options=FAST
            )
            assert set(restart.sources.values()) == {"cache"}
            assert len(hash_calls) == 2  # one per restart-sweep run
    finally:
        server.stop()
        thread.join(timeout=10)
    assert restart.jobs == cold.jobs


def test_stopped_service_is_freed_without_the_cyclic_gc(tmp_path):
    """After ``stop()`` and ``join()``, dropping the last references
    frees the service and its memo by reference counting alone: neither
    the server's thread-safe ``stop`` nor its closed asyncio server
    leaves a cycle behind."""
    specs = sweep_specs(["WL-9"], ["all_bank", "per_bank"], **FAST)
    gc.collect()
    gc.disable()
    try:
        service = SweepService(backend=InlineBackend(), cache_dir=tmp_path)
        server, thread = serve_in_thread(service)
        with ServiceClient(port=server.port, timeout=60) as client:
            client.sweep(specs=specs)
            for _ in range(3):
                assert client.submit(specs[0])[1] == "memo"
        server.stop()
        thread.join(timeout=10)
        assert not thread.is_alive()
        freed = weakref.ref(service)
        del service, server, thread
        assert freed() is None
    finally:
        gc.enable()


# -- job and request failures --------------------------------------------------


class _FailingBackend(InlineBackend):
    """Runs every spec except ``all_bank`` ones, whose future raises a
    plain ``RuntimeError`` (not a ``ReproError``)."""

    def submit(self, spec, trace=None, parent=None):
        if spec.scenario.name != "all_bank":
            return super().submit(spec, trace=trace, parent=parent)
        future = Future()
        future.set_exception(RuntimeError("backend exploded"))
        return future


def test_job_raising_a_non_repro_error_is_answered(tmp_path):
    """The failing job gets its error frame, the other job its result,
    and the sweep its done frame: the client never waits it out."""
    specs = sweep_specs(["WL-9"], ["all_bank", "per_bank"], **FAST)
    service = SweepService(backend=_FailingBackend(), cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    try:
        with ServiceClient(port=server.port, timeout=5) as client:
            outcome = client.sweep(specs=specs)
            failed, served = (spec.content_hash() for spec in specs)
            assert outcome.errors == {failed: "RuntimeError: backend exploded"}
            assert outcome.sources == {failed: "error", served: "executed"}
            assert _canon(outcome.results[served]) == _canon(run_spec(specs[1]))
            with pytest.raises(ServiceError, match="backend exploded"):
                client.submit(specs[0])
            # The failure was not memoized: the service retries it.
            assert service.runs_executed == 3
    finally:
        server.stop()
        thread.join(timeout=10)


def test_non_object_cache_entry_is_recomputed_by_a_restart(tmp_path):
    """A disk-cache entry holding ``[]`` is a miss, not a hung sweep."""
    spec = _spec()
    asyncio.run(SweepService(cache_dir=tmp_path).resolve(spec))
    path = ResultCache(tmp_path).path(spec.content_hash())
    path.write_text("[]")
    server, thread = _serve(tmp_path)
    try:
        with ServiceClient(port=server.port, timeout=5) as client:
            outcome = client.sweep(specs=[spec])
    finally:
        server.stop()
        thread.join(timeout=10)
    assert outcome.ok
    assert outcome.sources == {spec.content_hash(): "executed"}
    assert json.loads(path.read_text())["spec"] == spec.to_dict()


def test_request_that_cannot_be_decomposed_is_a_service_error(tmp_path):
    server, thread = _serve(tmp_path)
    try:
        with ServiceClient(port=server.port, timeout=5) as client:
            with pytest.raises(ServiceError, match="TypeError"):
                client.sweep(
                    workloads=["WL-9"], scenarios=["per_bank"],
                    options={**FAST, "num_windows": "two"},
                )
            assert client.ping()["type"] == "pong"
    finally:
        server.stop()
        thread.join(timeout=10)
