"""Event sinks: ring-buffer eviction, JSONL round-trip, Chrome traces."""

import json

import pytest

from repro.errors import ConfigError
from repro.telemetry import (
    CallbackSink,
    ChromeTraceSink,
    DramCommandEvent,
    JsonlSink,
    PageAllocEvent,
    RefreshCommandEvent,
    RefreshStretchBeginEvent,
    RefreshStretchEndEvent,
    RingBufferSink,
    SchedulerPickEvent,
    TaskMigrationEvent,
    Telemetry,
    TraceEvent,
    read_jsonl,
)


def sample_events():
    return [
        RefreshStretchBeginEvent(time=0, bank=3),
        RefreshCommandEvent(
            time=10, channel=0, rank=0, bank=3, duration=40, all_bank=False
        ),
        DramCommandEvent(
            time=90, op="RD", channel=0, rank=0, bank=5, row_hit=True,
            task_id=2, latency=30, refresh_stall=0,
        ),
        SchedulerPickEvent(
            time=100, core_id=1, task_id=4, task_name="mcf",
            refresh_bank=3, conflict=False, quantum_cycles=1000,
        ),
        RefreshStretchEndEvent(time=500, bank=3),
        PageAllocEvent(time=600, task_id=2, frame=17, bank=5, spilled=True),
        TaskMigrationEvent(time=700, task_id=4, src_cpu=0, dst_cpu=1),
    ]


# -- hub -----------------------------------------------------------------------


def test_hub_enabled_tracks_subscriptions():
    hub = Telemetry()
    assert not hub.enabled
    sink = hub.subscribe(CallbackSink(lambda event: None))
    assert hub.enabled
    hub.unsubscribe(sink)
    assert not hub.enabled
    hub.unsubscribe(sink)  # unknown: ignored
    assert not hub.enabled


def test_hub_fans_out_to_every_sink():
    hub = Telemetry()
    seen_a, seen_b = [], []
    hub.subscribe(CallbackSink(seen_a.append))
    hub.subscribe(CallbackSink(seen_b.append))
    for event in sample_events():
        hub.emit(event)
    assert len(seen_a) == len(seen_b) == len(sample_events())


# -- ring buffer ---------------------------------------------------------------


def test_ring_buffer_keeps_newest_and_counts_evictions():
    ring = RingBufferSink(capacity=3)
    events = sample_events()
    for event in events:
        ring.emit(event)
    assert ring.emitted == len(events)
    assert ring.evicted == len(events) - 3
    assert ring.events() == events[-3:]
    ring.clear()
    assert ring.events() == [] and ring.emitted == 0


def test_ring_buffer_rejects_zero_capacity():
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


# -- JSONL ---------------------------------------------------------------------


def test_jsonl_round_trip_preserves_types(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(path)
    events = sample_events()
    for event in events:
        sink.emit(event)
    sink.close()
    assert sink.written == len(events)
    reloaded = read_jsonl(path)
    assert reloaded == events
    assert [type(e) for e in reloaded] == [type(e) for e in events]


def test_jsonl_context_manager_flushes_on_mid_run_exception(tmp_path):
    """A run killed mid-stream must leave complete, parseable records —
    the with-block closes (and so flushes) the file on the way out."""
    from repro.core.engine import Engine

    path = tmp_path / "aborted.jsonl"
    engine = Engine()
    hub = Telemetry()
    emitted = []

    def emit_one(k):
        event = RefreshStretchBeginEvent(time=engine.now, bank=k)
        hub.emit(event)
        emitted.append(event)

    def explode():
        raise RuntimeError("simulated mid-run crash")

    with pytest.raises(RuntimeError, match="mid-run crash"):
        with JsonlSink(path) as sink:
            hub.subscribe(sink)
            for k in range(100):
                engine.schedule_at(k + 1, emit_one, k)
            engine.schedule_at(50, explode)
            engine.run()

    # 50 events fired before the crash; every written line parses and
    # matches what was emitted, in order — no truncated tail.
    reloaded = read_jsonl(path)
    assert len(reloaded) == 50
    assert reloaded == emitted


def test_jsonl_flush_makes_records_visible_without_close(tmp_path):
    path = tmp_path / "live.jsonl"
    with JsonlSink(path) as sink:
        sink.emit(RefreshStretchBeginEvent(time=0, bank=1))
        sink.flush()
        assert len(read_jsonl(path)) == 1
    assert len(read_jsonl(path)) == 1


def test_event_round_trip_via_dict():
    for event in sample_events():
        assert TraceEvent.from_dict(event.to_dict()) == event


def test_unknown_event_kind_rejected():
    with pytest.raises(ConfigError, match="unknown event kind"):
        TraceEvent.from_dict({"kind": "dram.teleport", "time": 0})


def test_malformed_event_payload_rejected():
    with pytest.raises(ConfigError, match="malformed payload"):
        TraceEvent.from_dict({"kind": "refresh.stretch_begin", "time": 0})


# -- Chrome trace --------------------------------------------------------------


def test_chrome_trace_pairs_stretches_and_skips_idle():
    sink = ChromeTraceSink()
    for event in sample_events():
        sink.emit(event)
    sink.emit(
        SchedulerPickEvent(
            time=2000, core_id=0, task_id=None, task_name="(idle)",
            refresh_bank=None, conflict=False, quantum_cycles=1000,
        )
    )
    trace = sink.trace()
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    stretch = [s for s in slices if s["tid"] == ChromeTraceSink.TID_STRETCH
               and s["pid"] == ChromeTraceSink.PID_DRAM]
    assert len(stretch) == 1
    assert stretch[0]["name"] == "refresh b3"
    assert stretch[0]["ts"] == 0 and stretch[0]["dur"] == 500
    picks = [s for s in slices if s["pid"] == ChromeTraceSink.PID_CPU]
    assert len(picks) == 1  # the idle quantum is skipped
    instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert len(instants) == 1 and instants[0]["tid"] == 1
    # DRAM commands are dropped unless opted in; allocs always drop.
    assert sink.dropped == 2


def test_chrome_trace_can_include_dram_commands():
    sink = ChromeTraceSink(include_dram_commands=True)
    for event in sample_events():
        sink.emit(event)
    names = {e["name"] for e in sink.trace()["traceEvents"]}
    assert "RD" in names
    assert sink.dropped == 1  # only the alloc event has no track


def test_chrome_trace_json_is_deterministic(tmp_path):
    def build():
        sink = ChromeTraceSink()
        for event in sample_events():
            sink.emit(event)
        return sink.to_json()

    assert build() == build()
    path = tmp_path / "trace.json"
    sink = ChromeTraceSink()
    for event in sample_events():
        sink.emit(event)
    sink.write(path)
    assert json.loads(path.read_text())["traceEvents"]


def test_chrome_trace_declares_track_names():
    sink = ChromeTraceSink()
    for event in sample_events():
        sink.emit(event)
    meta = [e for e in sink.trace()["traceEvents"] if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta}
    assert {"dram", "cpu", "refresh stretches", "refresh commands"} <= names
    assert "core 1" in names


# -- span track ----------------------------------------------------------------


def _span(span_id, name, trace_id="a" * 16, job="job1", parent=None,
          wall_start=100, wall_dur=10, cycles=0, detail=""):
    from repro.telemetry import SpanEvent

    return SpanEvent(
        time=span_id, trace_id=trace_id, name=name, job=job, parent=parent,
        cycles=cycles, detail=detail,
        wall_start_us=wall_start, wall_dur_us=wall_dur,
    )


def test_span_slices_land_on_the_service_process():
    sink = ChromeTraceSink()
    sink.emit(_span(0, "resolve", wall_start=150, wall_dur=40))
    sink.emit(_span(1, "execute", parent=0, wall_start=160, wall_dur=25,
                    cycles=20_000, detail="hash"))
    trace = sink.trace()
    spans = [e for e in trace["traceEvents"] if e.get("cat") == "span"]
    assert len(spans) == 2
    assert all(s["pid"] == ChromeTraceSink.PID_SERVICE for s in spans)
    lanes = {s["name"]: s["tid"] for s in spans}
    assert lanes["resolve"] == ChromeTraceSink.SPAN_LANES.index("resolve")
    assert lanes["execute"] == ChromeTraceSink.SPAN_LANES.index("execute")
    # Wall times normalize to the earliest span start.
    assert [s["ts"] for s in spans] == [0, 10]
    execute = next(s for s in spans if s["name"] == "execute")
    assert execute["args"] == {
        "trace": "a" * 16, "job": "job1", "span": 1, "parent": 0,
        "cycles": 20_000, "detail": "hash",
    }
    # Metadata names the service process and each used lane.
    meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta}
    assert "service" in names and "resolve" in names and "execute" in names


def test_span_slices_sort_by_trace_job_and_id_not_wall():
    sink = ChromeTraceSink()
    # Emit out of deterministic order, with wall times reversed.
    sink.emit(_span(1, "execute", job="j2", wall_start=50))
    sink.emit(_span(0, "resolve", job="j2", wall_start=900))
    sink.emit(_span(0, "resolve", job="j1", wall_start=500))
    spans = [e for e in sink.trace()["traceEvents"]
             if e.get("cat") == "span"]
    assert [(s["args"]["job"], s["args"]["span"]) for s in spans] == [
        ("j1", 0), ("j2", 0), ("j2", 1)
    ]


def test_unknown_span_name_falls_to_the_other_lane():
    sink = ChromeTraceSink()
    sink.emit(_span(0, "not-a-lane"))
    (span,) = [e for e in sink.trace()["traceEvents"]
               if e.get("cat") == "span"]
    assert span["tid"] == len(ChromeTraceSink.SPAN_LANES)
    meta = [e for e in sink.trace()["traceEvents"] if e["ph"] == "M"]
    assert "other" in {e["args"]["name"] for e in meta}


def test_strip_span_walls_leaves_only_deterministic_structure():
    from repro.telemetry import strip_span_walls

    def build(gap, dur):
        sink = ChromeTraceSink()
        sink.emit(sample_events()[0])  # simulation event rides along
        sink.emit(sample_events()[4])
        sink.emit(_span(0, "resolve", wall_start=1000, wall_dur=dur))
        sink.emit(_span(1, "execute", parent=0,
                        wall_start=1000 + gap, wall_dur=2))
        return sink.trace()

    a, b = build(3, 7), build(450, 9000)
    assert a != b  # wall fields differ...
    stripped_a, stripped_b = strip_span_walls(a), strip_span_walls(b)
    assert json.dumps(stripped_a, sort_keys=True) == json.dumps(
        stripped_b, sort_keys=True
    )  # ...and stripping removes exactly that difference.
    # Simulation slices keep their (simulated-cycle) timestamps.
    stretch = [e for e in stripped_a["traceEvents"]
               if e.get("cat") == "refresh"]
    assert stretch and stretch[0]["dur"] == 500
