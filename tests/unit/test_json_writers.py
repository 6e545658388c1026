"""The file writers encode with one ``json.dumps`` and write once.

``json.dump`` streams through CPython's pure-Python encoder; only the
one-shot ``dumps`` runs the C one.  The switch must not change a byte:
each writer's output is compared with what ``json.dump`` writes for the
same real payload (a checkpoint, and JSONL events with non-ASCII text
and floats).  A cache entry, spliced from texts encoded once, is
compared with ``json.dump``'s canonical encoding (sorted keys, no
whitespace) of its payload.
"""

import io
import json
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.core.checkpoint import checkpoint_payload, save_checkpoint
from repro.core.simulator import build_system_from_spec, make_run_spec, run_spec
from repro.experiments.cache import CACHE_SCHEMA, ResultCache
from repro.telemetry.events import SchedulerPickEvent, SpanEvent, TraceEvent
from repro.telemetry.hub import Telemetry
from repro.telemetry.sinks import CallbackSink, JsonlSink

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)


def _dumped(payload, **options) -> bytes:
    buffer = io.StringIO()
    json.dump(payload, buffer, **options)
    return buffer.getvalue().encode("utf-8")


@dataclass(frozen=True)
class _Sample(TraceEvent):
    """An event with float fields (none of the simulator's events has one)."""

    kind: ClassVar[str] = "test.sample"

    label: str
    value: float
    ratio: float


@pytest.fixture(scope="module")
def spec():
    return make_run_spec("WL-9", "codesign", sample_windows=4, **FAST)


def test_a_cache_entry_is_what_json_dump_writes(tmp_path, spec):
    result = run_spec(spec)
    assert result.timeseries is not None  # floats in nested lists
    cache = ResultCache(tmp_path)
    key = spec.content_hash()
    cache.put(key, spec, result)
    payload = {"schema": CACHE_SCHEMA, "spec": spec.to_dict(), "result": result.to_dict()}
    assert cache.path(key).read_bytes() == _dumped(
        payload, sort_keys=True, separators=(",", ":")
    )


def test_a_checkpoint_is_what_json_dump_writes(tmp_path, spec):
    captured = {}

    def sink(cycle, state):
        captured[cycle] = state
        return len(captured) == 2

    system = build_system_from_spec(spec)
    system.run(
        num_windows=spec.num_windows,
        warmup_windows=spec.warmup_windows,
        sample_windows=spec.sample_windows,
        checkpoint_every=1 / 16,
        checkpoint_sink=sink,
    )
    cycle, state = max(captured.items())
    path = save_checkpoint(tmp_path / "ckpt.json", spec, cycle, state)
    assert path.read_bytes() == _dumped(checkpoint_payload(spec, cycle, state))


def test_jsonl_events_are_what_json_dump_writes(tmp_path):
    events = []
    telemetry = Telemetry()
    telemetry.subscribe(CallbackSink(events.append))
    run_spec(make_run_spec("WL-9", "codesign", num_windows=0.05,
                           warmup_windows=0.0, refresh_scale=1024),
             telemetry=telemetry)
    by_kind = {}
    for event in events:
        by_kind.setdefault(event.kind, []).append(event)
    assert {"dram.cmd", "dram.refresh", "sched.pick", "os.alloc"} <= set(by_kind)
    events = [e for kind in sorted(by_kind) for e in by_kind[kind][:40]] + [
        SchedulerPickEvent(time=7, core_id=0, task_id=1, task_name="mcf-Ω·ü",
                           refresh_bank=None, conflict=False, quantum_cycles=10),
        SpanEvent(time=1, trace_id="t", name="restore", detail="préfixe ✓  "),
        _Sample(time=3, label="naïve 🚀", value=0.1 + 0.2, ratio=-0.0),
        _Sample(time=4, label="\x00\x1f\"\\", value=1e-310, ratio=float("inf")),
        _Sample(time=5, label="", value=2.5e22, ratio=float("nan")),
    ]
    path = tmp_path / "events.jsonl"
    with JsonlSink(path) as sink:
        for event in events:
            sink.emit(event)
    expected = b"".join(
        _dumped(e.to_dict(), sort_keys=True, separators=(",", ":")) + b"\n"
        for e in events
    )
    assert path.read_bytes() == expected
    assert sink.written == len(events)
