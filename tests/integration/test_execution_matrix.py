"""Every way the sweep service executes a job, pinned case by case.

A job is cold or warm-started from a ``per_bank`` prefix; plain,
streamed, monitored, or streamed and monitored; traced or not; and
served with ``jobs=1`` (every job on the worker thread, ``thread``) or
``jobs=2`` (plain jobs on the process pool, ``process``).  Each of the
32 cases goes through ``SweepService.resolve`` on a fresh service and
must report its source tag, move exactly its counters, open exactly its
spans, stream events if and only if it is streamed, carry
``monitor_violations`` only when monitored, and serve ``run_spec``'s
result.
"""

import asyncio

import pytest

from repro.core.simulator import run_spec, sweep_specs, warm_start_state
from repro.errors import MonitorError
from repro.os.refresh_aware import RefreshAwareScheduler
from repro.os.scheduler import CfsScheduler
from repro.serialize import content_hash
from repro.service import SweepService
from repro.tracing import JobTrace, mint_trace_id

WINDOWS = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)

STARTS = {"cold": None, "warm": "per_bank"}

#: Job kind -> (streamed, monitor mode).
KINDS = {
    "plain": (False, None),
    "streamed": (True, None),
    "monitored": (False, "collect"),
    "streamed+monitored": (True, "collect"),
}

#: Where plain jobs run (the service's ``backend`` counter) -> ``jobs``.
JOBS = {"thread": 1, "process": 2}

#: Counters a fresh service moves for each job kind (all others stay).
COUNTERS = {
    "plain": {"runs_executed": 1},
    "streamed": {"runs_executed": 1, "live_runs": 1},
    "monitored": {"monitored_runs": 1},
    "streamed+monitored": {"monitored_runs": 1},
}


def _spec(start: str, scenario: str = "all_bank", workload: str = "WL-1"):
    (spec,) = sweep_specs(
        [workload], [scenario], warmup_scenario=STARTS[start], **WINDOWS
    )
    return spec


def _plain_digest(result) -> str:
    payload = result.to_dict()
    payload.pop("monitor_violations", None)
    payload.pop("trace_id", None)
    return content_hash(payload)


@pytest.fixture(scope="module")
def reference():
    """Per start: ``run_spec``'s digest and the warm-up prefix's
    provenance (``None`` for a cold start)."""
    out = {}
    for start in STARTS:
        spec = _spec(start)
        provenance = (
            warm_start_state(spec)[1] if STARTS[start] is not None else None
        )
        out[start] = (_plain_digest(run_spec(spec)), provenance)
    return out


def _counters(service) -> dict:
    return {
        name: value
        for name, value in service.counters().items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def _expected_spans(kind, key, spec, result, provenance, backend):
    """(span id, name, parent, cycles, detail) of a traced job's spans.
    A plain job run in a worker process opens no spans there."""
    streamed, monitors = KINDS[kind]
    cycles = result.simulated_cycles
    source = "executed" if kind == "plain" else "live"
    tier = source if monitors is None else f"monitored_{source}"
    spans = [
        (0, "resolve", None, cycles, tier),
        (1, "live" if streamed else "execute", 0, cycles, key),
    ]
    if kind == "plain" and backend == "thread":
        spans.append((2, "run_spec", 1, cycles, spec.content_hash()))
        if provenance is not None:
            spans.append((3, "restore", 2, 0, provenance))
    return spans


@pytest.mark.parametrize("backend", sorted(JOBS))
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("start", list(STARTS))
def test_execution_matrix(tmp_path, reference, start, kind, traced, backend):
    streamed, monitors = KINDS[kind]
    spec = _spec(start)
    expected_digest, provenance = reference[start]
    service = SweepService(jobs=JOBS[backend], cache_dir=tmp_path)
    assert service.counters()["backend"] == backend
    events, spans = [], []
    trace = (
        JobTrace(mint_trace_id("matrix", 0), spec.content_hash(), spans.append)
        if traced
        else None
    )
    before = _counters(service)
    try:
        result, source = asyncio.run(
            service.resolve(
                spec,
                monitors=monitors,
                event_cb=events.append if streamed else None,
                trace=trace,
            )
        )
    finally:
        service.close()
    after = _counters(service)

    assert source == ("executed" if kind == "plain" else "live")
    moved = {name: after[name] - before[name] for name in after}
    assert moved == {name: COUNTERS[kind].get(name, 0) for name in after}
    assert bool(events) == streamed
    assert all(frame["job"] == spec.content_hash() for frame in events)
    if monitors is None:
        assert result.monitor_violations is None
    else:
        assert result.monitor_violations == []
    assert result.trace_id == (trace.trace_id if traced else None)
    assert _plain_digest(result) == expected_digest

    key = service.job_key(spec.content_hash(), monitors)
    got = sorted(
        (s.span_id, s.name, s.parent, s.cycles, s.detail) for s in spans
    )
    if traced:
        assert got == _expected_spans(
            kind, key, spec, result, provenance, backend
        )
        assert {s.trace_id for s in spans} == {trace.trace_id}
    else:
        assert got == []


def test_a_failed_monitored_job_closes_its_execute_span_as_an_error(
    tmp_path, monkeypatch
):
    """A strict-monitor failure reads ``error`` on the ``execute`` span,
    as a failed plain or streamed job's span does, and leaves nothing
    in flight or memoized."""
    monkeypatch.setattr(
        RefreshAwareScheduler, "pick_next_task", CfsScheduler.pick_next_task
    )
    spec = _spec("cold", scenario="codesign", workload="WL-6")
    service = SweepService(cache_dir=tmp_path)
    spans = []
    trace = JobTrace(mint_trace_id("strict", 0), spec.content_hash(), spans.append)
    with pytest.raises(MonitorError, match="scheduler_conflict"):
        asyncio.run(service.resolve(spec, monitors="strict", trace=trace))
    named = {s.name: s for s in spans}
    assert sorted(named) == ["execute", "resolve"]
    assert named["execute"].detail == "error"
    assert named["execute"].parent == named["resolve"].span_id
    assert named["resolve"].detail == "error:MonitorError"
    counters = service.counters()
    assert (counters["monitored_runs"], counters["inflight"]) == (1, 0)
    assert service.memo_spec(service.job_key(spec.content_hash(), "strict")) is None
