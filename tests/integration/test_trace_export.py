"""End-to-end trace export: deterministic Chrome traces, JSONL, metrics.

Runs a short WL-6 co-design window with every sink attached and checks
the golden properties ISSUE requirements pin down: the Chrome trace is
byte-identical across two runs of the same spec, refresh stretches and
per-core quantum picks land on their own tracks, and the JSONL stream
round-trips to typed events.
"""

import json

from repro.__main__ import main
from repro.core.simulator import build_system_from_spec, make_run_spec
from repro.telemetry import (
    ChromeTraceSink,
    JsonlSink,
    RefreshStretchBeginEvent,
    RingBufferSink,
    SchedulerPickEvent,
    Telemetry,
    read_jsonl,
)

FAST = dict(
    num_windows=0.25, warmup_windows=0.05, refresh_scale=1024,
)


def run_traced(extra_sinks=()):
    spec = make_run_spec("WL-6", "codesign", **FAST)
    telemetry = Telemetry()
    chrome = telemetry.subscribe(ChromeTraceSink())
    for sink in extra_sinks:
        telemetry.subscribe(sink)
    system = build_system_from_spec(spec, telemetry=telemetry)
    result = system.run(
        num_windows=spec.num_windows, warmup_windows=spec.warmup_windows
    )
    telemetry.close()
    return system, result, chrome


def test_chrome_trace_is_byte_identical_across_runs():
    _, result_a, chrome_a = run_traced()
    _, result_b, chrome_b = run_traced()
    assert chrome_a.to_json() == chrome_b.to_json()
    assert result_a.hmean_ipc == result_b.hmean_ipc


def test_trace_has_stretch_and_per_core_tracks():
    system, _, chrome = run_traced()
    events = chrome.trace()["traceEvents"]
    stretches = [
        e for e in events
        if e["ph"] == "X"
        and e["pid"] == ChromeTraceSink.PID_DRAM
        and e["tid"] == ChromeTraceSink.TID_STRETCH
    ]
    assert stretches, "no refresh-stretch slices"
    assert all(e["name"].startswith("refresh b") for e in stretches)
    assert all(e["dur"] > 0 for e in stretches)
    pick_tids = {
        e["tid"] for e in events
        if e["ph"] == "X" and e["pid"] == ChromeTraceSink.PID_CPU
    }
    assert pick_tids == {core.core_id for core in system.cores}


def test_jsonl_round_trips_and_ring_evicts(tmp_path):
    path = tmp_path / "events.jsonl"
    ring = RingBufferSink(capacity=64)
    _, _, _ = run_traced(extra_sinks=[JsonlSink(path), ring])
    events = read_jsonl(path)
    assert len(events) == ring.emitted
    assert ring.evicted == ring.emitted - 64
    assert ring.events() == events[-64:]
    kinds = {type(e) for e in events}
    assert RefreshStretchBeginEvent in kinds
    assert SchedulerPickEvent in kinds


def test_observed_result_matches_cached_pipeline_result():
    from repro.core.simulator import run_spec

    spec = make_run_spec("WL-6", "codesign", **FAST)
    plain = run_spec(spec)
    _, observed, _ = run_traced()
    assert observed.hmean_ipc == plain.hmean_ipc
    assert observed.to_dict() == plain.to_dict()


CLI_FAST = [
    "--windows", "0.25", "--warmup", "0.05", "--refresh-scale", "1024",
    "--no-cache",
]


def test_cli_trace_flags_write_all_outputs(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    jsonl = tmp_path / "events.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main([
        "run", "WL-6", "codesign", *CLI_FAST,
        "--trace", str(trace),
        "--trace-jsonl", str(jsonl),
        "--metrics-out", str(metrics),
        "--timeseries", "8",
    ]) == 0
    out = capsys.readouterr().out
    assert "hmean IPC" in out

    payload = json.loads(trace.read_text())
    phases = {e["ph"] for e in payload["traceEvents"]}
    assert {"X", "M"} <= phases

    assert read_jsonl(jsonl)

    snapshot = json.loads(metrics.read_text())
    assert any(k.startswith("dram.controller.") for k in snapshot)
    assert any(k.startswith("os.task.") for k in snapshot)


def test_cli_multi_scenario_suffixes_trace_files(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main([
        "run", "WL-6", "all_bank,codesign", *CLI_FAST, "--trace", str(trace),
    ]) == 0
    assert (tmp_path / "trace.all_bank.json").exists()
    assert (tmp_path / "trace.codesign.json").exists()
    assert not trace.exists()
