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
from collections import Counter

import pytest

import repro
from repro.core.runspec import RunSpec
from repro.core.simulator import make_run_spec, run_spec, sweep_specs
from repro.errors import ServiceError
from repro.experiments.cache import ResultCache
from repro.service import ServiceClient, SweepService, serve_in_thread
from repro.service import server as server_module
from repro.telemetry.wire import encode_frame, spec_payload

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
    service = SweepService(cache_dir=tmp_path)
    spec = _spec()

    async def fan_out():
        return await asyncio.gather(
            *(service.resolve(spec) for _ in range(5))
        )

    outcomes = asyncio.run(fan_out())
    sources = sorted(source for _, source in outcomes)
    assert sources == ["dedup"] * 4 + ["executed"]
    assert service.counters()["runs_executed"] == 1
    assert service.counters()["dedup_hits"] == 4
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
    assert rebooted.counters()["runs_executed"] == 0


def test_distinct_specs_do_not_dedup(tmp_path):
    service = SweepService(cache_dir=tmp_path)

    async def both():
        return await asyncio.gather(
            service.resolve(_spec("per_bank")),
            service.resolve(_spec("all_bank")),
        )

    outcomes = asyncio.run(both())
    assert [source for _, source in outcomes] == ["executed", "executed"]
    assert service.counters()["runs_executed"] == 2


def test_warm_started_spec_byte_identical(tmp_path):
    """Warm-start through the service's checkpoint store matches local."""
    (spec,) = sweep_specs(
        ["WL-9"], ["codesign"], warmup_scenario="per_bank", **FAST
    )
    service = SweepService(cache_dir=tmp_path)
    result, source = asyncio.run(service.resolve(spec))
    assert source == "executed"
    assert _canon(result) == _canon(run_spec(spec))
    # The worker computed the warm-up prefix into the service-wide store.
    store = service.checkpoint_store
    assert (store.hits, store.misses) == (0, 1)
    assert len(list(store.root.glob("*/*.json"))) == 1


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
    service = SweepService(cache_dir=tmp_path / "cache")
    server, thread = serve_in_thread(service)
    yield server, service
    server.stop()
    thread.join(timeout=10)


def test_served_result_byte_identical(live):
    server, _service = live
    spec = _spec()
    with ServiceClient(port=server.port) as client:
        result, source = client.submit(spec)
    assert source == "executed"
    assert _canon(result) == _canon(run_spec(spec))


class _HoldUntilJoined(SweepService):
    """Holds each run until a second submission has joined it, so two
    submissions are in flight together by construction."""

    def _run(self, spec, *args):
        deadline = time.monotonic() + 60
        while (
            self.counters()["dedup_hits"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)
        return super()._run(spec, *args)


@pytest.fixture
def held(tmp_path):
    service = _HoldUntilJoined(cache_dir=tmp_path / "cache")
    server, thread = serve_in_thread(service)
    yield server, service
    server.stop()
    thread.join(timeout=10)


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
    assert service.counters()["runs_executed"] == 1
    payloads = {_canon(result) for result, _ in outcomes.values()}
    assert payloads == {_canon(run_spec(spec))}


class _HoldUntilReleased(SweepService):
    """Holds each run on the worker thread until the test releases it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.entered = threading.Event()
        self.released = threading.Event()

    def _run(self, spec, *args):
        self.entered.set()
        self.released.wait(60)
        return super()._run(spec, *args)


def test_the_loop_answers_status_while_a_job_runs(tmp_path):
    """With ``jobs=1`` a job runs on the worker thread, so the event loop
    answers another connection's ``status`` while the job is held."""
    service = _HoldUntilReleased(cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    spec = _spec()
    outcome = {}
    try:
        with ServiceClient(port=server.port, timeout=60) as submitter:
            submit = threading.Thread(
                target=lambda: outcome.update(answer=submitter.submit(spec))
            )
            submit.start()
            assert service.entered.wait(60)
            with ServiceClient(port=server.port, timeout=10) as watcher:
                counters = watcher.status()
            assert (counters["inflight"], counters["runs_executed"]) == (1, 1)
            assert "answer" not in outcome
            service.released.set()
            submit.join(timeout=120)
            assert not submit.is_alive()
    finally:
        service.released.set()
        server.stop()
        thread.join(timeout=10)
    result, source = outcome["answer"]
    assert source == "executed"
    assert _canon(result) == _canon(run_spec(spec))


def test_a_served_cold_sweep_writes_the_cache_off_the_event_loop(
    tmp_path, monkeypatch
):
    """At ``jobs=1`` each executed result is encoded and written to the
    disk cache on the worker thread that ran it, so no file call waits
    for the interpreter lock on the event loop while the next job runs."""
    threads = []
    put = ResultCache.put

    def recording(cache, *args):
        threads.append(threading.current_thread())
        return put(cache, *args)

    monkeypatch.setattr(ResultCache, "put", recording)
    server, thread = _serve(tmp_path)
    try:
        with ServiceClient(port=server.port, timeout=60) as client:
            outcome = client.sweep(
                workloads=["WL-9"], scenarios=["all_bank", "per_bank"],
                options=FAST,
            )
    finally:
        server.stop()
        thread.join(timeout=10)
    assert set(outcome.sources.values()) == {"executed"}
    assert len(threads) == 2
    assert thread not in threads  # the event loop's thread
    assert all(t.name.startswith("repro-svc") for t in threads)


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
        assert hello["wire"] == 3
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
    service = SweepService(cache_dir=tmp_path)
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
    service = SweepService(cache_dir=tmp_path)
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
    service = SweepService(cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    with ServiceClient(port=server.port) as client:
        client.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


# -- one hash per received spec ------------------------------------------------


def _serve(cache_dir):
    service = SweepService(cache_dir=cache_dir)
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


def test_resolve_and_cache_lookups_agree_with_the_counters(
    tmp_path, monkeypatch
):
    """The agreement a traced benchmark run checks: every answer passes
    through ``SweepService.resolve`` and every disk lookup through
    ``ResultCache.get``, so the sources ``resolve`` returns, counted per
    tier, and the lookups that missed match the service's own counters
    over a cold sweep, memo resubmissions and a restart served from
    disk."""
    sources, lookups = Counter(), Counter()
    resolve, get = SweepService.resolve, ResultCache.get

    async def counting_resolve(service, *args, **kwargs):
        result, source = await resolve(service, *args, **kwargs)
        sources[source] += 1
        return result, source

    def counting_get(cache, spec):
        hit = get(cache, spec)
        lookups["miss" if hit is None else "hit"] += 1
        return hit

    monkeypatch.setattr(SweepService, "resolve", counting_resolve)
    monkeypatch.setattr(ResultCache, "get", counting_get)
    specs = sweep_specs(["WL-9"], ["all_bank", "per_bank"], **FAST)
    counters, misses = Counter(), 0
    for _phase in ("cold", "restart"):
        service = SweepService(cache_dir=tmp_path)
        server, thread = serve_in_thread(service)
        try:
            with ServiceClient(port=server.port, timeout=60) as client:
                assert client.sweep(
                    workloads=["WL-9"], scenarios=["all_bank", "per_bank"],
                    options=FAST,
                ).ok
                for spec in specs + specs:
                    assert client.submit(spec)[1] == "memo"
        finally:
            server.stop()
            thread.join(timeout=10)
        snapshot = service.counters()
        counters.update({key: snapshot[key]
                         for key in ("runs_executed", "memo_hits", "disk_hits")})
        misses += service.cache.misses
    assert sources == {"executed": 2, "memo": 8, "cache": 2}
    assert counters == {
        "runs_executed": sources["executed"],
        "memo_hits": sources["memo"],
        "disk_hits": sources["cache"],
    }
    assert misses == lookups["miss"] == 2
    assert lookups["hit"] == sources["cache"]


def test_stopped_service_is_freed_without_the_cyclic_gc(tmp_path):
    """After ``stop()`` and ``join()``, dropping the last references
    frees the service and its memo by reference counting alone: neither
    the server's thread-safe ``stop`` nor its closed asyncio server
    leaves a cycle behind."""
    specs = sweep_specs(["WL-9"], ["all_bank", "per_bank"], **FAST)
    gc.collect()
    gc.disable()
    try:
        service = SweepService(cache_dir=tmp_path)
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


class _FailingService(SweepService):
    """Runs every spec except ``all_bank`` ones, whose run raises a
    plain ``RuntimeError`` (not a ``ReproError``)."""

    def _run(self, spec, *args):
        if spec.scenario.name == "all_bank":
            raise RuntimeError("job exploded")
        return super()._run(spec, *args)


def test_job_raising_a_non_repro_error_is_answered(tmp_path):
    """The failing job gets its error frame, the other job its result,
    and the sweep its done frame: the client never waits it out."""
    specs = sweep_specs(["WL-9"], ["all_bank", "per_bank"], **FAST)
    service = _FailingService(cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    try:
        with ServiceClient(port=server.port, timeout=5) as client:
            outcome = client.sweep(specs=specs)
            failed, served = (spec.content_hash() for spec in specs)
            assert outcome.errors == {failed: "RuntimeError: job exploded"}
            assert outcome.sources == {failed: "error", served: "executed"}
            assert _canon(outcome.results[served]) == _canon(run_spec(specs[1]))
            with pytest.raises(ServiceError, match="job exploded"):
                client.submit(specs[0])
            # The failure was not memoized: the service retries it.
            assert service.counters()["runs_executed"] == 3
    finally:
        server.stop()
        thread.join(timeout=10)


def test_failed_jobs_keep_counters_and_metrics_tiers_in_agreement(tmp_path):
    """A failed execution and a dedup join of it are each counted once,
    in the one tier ledger: the ``status`` counters and the ``metrics``
    frame's deterministic tiers agree, and only completed results reach
    the histograms."""
    spec = _spec("all_bank")  # _FailingService fails every all_bank run
    service = _FailingService(cache_dir=tmp_path)

    async def execute_and_join():
        return await asyncio.gather(
            service.resolve(spec), service.resolve(spec),
            return_exceptions=True,
        )

    outcomes = asyncio.run(execute_and_join())
    assert [type(outcome) for outcome in outcomes] == [RuntimeError] * 2
    server, thread = serve_in_thread(service)
    try:
        with ServiceClient(port=server.port, timeout=5) as client:
            counters = client.status()
            frame = client.metrics()
    finally:
        server.stop()
        thread.join(timeout=10)
    tiers = frame["deterministic"]["tiers"]
    assert frame["counters"] == counters
    assert counters["runs_executed"] == tiers["executed"] + tiers["live"] == 1
    assert counters["dedup_hits"] == tiers["dedup"] == 1
    cycles = frame["deterministic"]["cycles"]
    assert cycles["executed"]["count"] == cycles["dedup"]["count"] == 0


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


# -- hits answered in the request's own task -----------------------------------


def _count_tasks(server) -> list:
    """Every asyncio task created on *server*'s loop from now on."""
    created = []

    def factory(loop, coro, **kwargs):
        created.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def install():
        asyncio.get_running_loop().set_task_factory(factory)

    asyncio.run_coroutine_threadsafe(install(), server._loop).result(10)
    return created


def test_disk_hits_are_answered_without_a_task_each(tmp_path):
    """A restart sweep of one disk hit and one of six create as many
    tasks: none per job."""
    specs = sweep_specs(["WL-9", "WL-6"], ["all_bank", "per_bank", "codesign"],
                        **FAST)
    server, thread = _serve(tmp_path)
    try:
        with ServiceClient(port=server.port, timeout=60) as client:
            assert client.sweep(specs=specs).ok
    finally:
        server.stop()
        thread.join(timeout=10)
    tasks = []
    for subset in (specs[:1], specs):
        server, thread = _serve(tmp_path)
        try:
            created = _count_tasks(server)
            with ServiceClient(port=server.port, timeout=60) as client:
                outcome = client.sweep(specs=subset)
                tasks.append(len(created))
        finally:
            server.stop()
            thread.join(timeout=10)
        assert [outcome.sources[job] for job in outcome.jobs] == ["cache"] * len(subset)
    assert tasks[0] == tasks[1]


def test_hits_leave_in_submission_order_before_the_jobs_that_wait(
    tmp_path, monkeypatch
):
    """One request mixing a memo hit, a disk hit, a job in flight for
    another client, a miss and repeats: ``ack``, the hits in submission
    order, the waiting jobs, ``done``.  Sources and counters are what
    each job's tier makes them, and each job that reaches the disk costs
    one lookup."""
    memo, disk, held, miss = sweep_specs(
        ["WL-9"], ["all_bank", "per_bank", "codesign", "elastic"], **FAST
    )
    filler = SweepService(cache_dir=tmp_path)
    for spec in (memo, disk):
        assert asyncio.run(filler.resolve(spec))[1] == "executed"
    filler.close()
    looked_up = []
    get = ResultCache.get

    def recording(cache, spec):
        looked_up.append(spec.content_hash())
        return get(cache, spec)

    monkeypatch.setattr(ResultCache, "get", recording)
    service = _HoldUntilReleased(cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    outcome = {}
    try:
        with ServiceClient(port=server.port, timeout=60) as first, \
                ServiceClient(port=server.port, timeout=60) as other, \
                ServiceClient(port=server.port, timeout=60) as client:
            assert first.submit(memo)[1] == "cache"
            submit = threading.Thread(
                target=lambda: outcome.update(answer=other.submit(held))
            )
            submit.start()
            assert service.entered.wait(60)
            looked_up.clear()
            order = [held, disk, memo, held, disk, miss]
            rid = client._send({"op": "sweep", "specs": [
                spec_payload(spec.canonical_json()) for spec in order
            ]})
            frames = [client._recv_for(rid) for _ in range(4)]
            service.released.set()
            while frames[-1]["type"] != "done":
                frames.append(client._recv_for(rid))
            submit.join(timeout=60)
    finally:
        service.released.set()
        server.stop()
        thread.join(timeout=10)
    ids = {spec.content_hash(): name for name, spec in
           [("memo", memo), ("disk", disk), ("held", held), ("miss", miss)]}
    assert frames[0]["type"] == "ack"
    assert [ids[j] for j in frames[0]["jobs"]] == [
        "held", "disk", "memo", "held", "disk", "miss"
    ]
    answers = [(ids[f["job"]], f["source"]) for f in frames[1:-1]]
    assert answers[:3] == [("disk", "cache"), ("memo", "memo"), ("disk", "memo")]
    assert sorted(answers[3:]) == [
        ("held", "dedup"), ("held", "dedup"), ("miss", "executed")
    ]
    done = frames[-1]
    assert {ids[j]: s for j, s in done["sources"].items()} == {
        "held": "dedup", "disk": "memo", "memo": "memo", "miss": "executed"
    }
    counters = done["counters"]
    assert (counters["runs_executed"], counters["dedup_hits"],
            counters["memo_hits"], counters["disk_hits"]) == (2, 2, 2, 2)
    assert sorted(ids[j] for j in looked_up) == ["disk", "miss"]
    assert outcome["answer"][1] == "executed"
