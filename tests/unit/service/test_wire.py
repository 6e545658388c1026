"""Unit tests for the line-oriented wire format."""

import json

import pytest

from repro.core.simulator import make_run_spec, run_spec
from repro.errors import WireError
from repro.serialize import CanonicalJSON, canonical_json, encode_canonical
from repro.telemetry.events import DramCommandEvent, SpanEvent
from repro.tracing import request_digest
from repro.telemetry.wire import (
    WIRE_SCHEMA,
    WireSink,
    decode_frame,
    encode_frame,
    event_from_frame,
    span_frame,
    span_from_frame,
    telemetry_frame,
)


def _event(time=7):
    return DramCommandEvent(
        time=time, op="RD", channel=0, rank=0, bank=3,
        row_hit=True, task_id=2, latency=40, refresh_stall=False,
    )


def test_encode_decode_round_trip():
    frame = {"type": "ping", "id": 1}
    line = encode_frame(frame)
    assert line.endswith(b"\n")
    decoded = decode_frame(line)
    assert decoded == {"v": WIRE_SCHEMA, "type": "ping", "id": 1}


def test_encode_is_canonical_single_line():
    line = encode_frame({"b": 1, "a": {"z": 2, "y": 3}})
    text = line.decode("utf-8")
    assert text.count("\n") == 1
    # sort_keys + tight separators: byte-stable across runs.
    assert text == '{"a":{"y":3,"z":2},"b":1,"v":2}\n'


def test_spliced_text_encodes_byte_identical_to_the_dicts():
    """A top-level value given as canonical text is spliced in; the
    frame is byte-identical to encoding the value itself."""
    spec = make_run_spec("WL-9", "per_bank", num_windows=0.02,
                         warmup_windows=0.01, refresh_scale=1024)
    result = run_spec(spec)
    extra = {"name": "Ω-refresh “co-design” ✓", "floats": [0.1, 1e-300, -0.0, 2.5e17],
             "nested": [[1, [2.0, [3]]], {"b": [], "a": {}}], "none": None}
    plain = {
        "type": "result", "id": 7, "job": spec.content_hash(),
        "source": "memo", "spec": spec.to_dict(), "result": result.to_dict(),
        **extra,
    }
    spliced = {
        **plain,
        "spec": spec.canonical_json(),
        "result": canonical_json(result),
        **{key: CanonicalJSON(encode_canonical(value))
           for key, value in extra.items()},
    }
    assert encode_frame(spliced) == encode_frame(plain)
    assert encode_frame(plain) == (
        json.dumps({"v": WIRE_SCHEMA, **plain}, sort_keys=True,
                   separators=(",", ":")).encode("utf-8") + b"\n"
    )
    # A list of spliced texts joined as one value (a ``specs`` sweep).
    texts = CanonicalJSON("[" + ",".join([spec.canonical_json()] * 2) + "]")
    assert encode_frame({"op": "sweep", "specs": texts}) == encode_frame(
        {"op": "sweep", "specs": [spec.to_dict()] * 2}
    )
    assert decode_frame(encode_frame(spliced))["spec"] == spec.to_dict()
    # Trace ids are minted from the same canonical encoding.
    assert request_digest({"op": "submit", "spec": spec.canonical_json()}) == (
        request_digest({"op": "submit", "spec": spec.to_dict()})
    )


def test_decode_accepts_every_supported_version():
    """One version is supported: frames of the old v1 are refused."""
    assert decode_frame(encode_frame({"type": "ping"}))["v"] == WIRE_SCHEMA
    line = json.dumps({"v": 1, "type": "ping"}).encode("utf-8")
    with pytest.raises(WireError, match="wire schema mismatch"):
        decode_frame(line)


def test_decode_rejects_wrong_version():
    line = encode_frame({"type": "ping"}).replace(b'"v":2', b'"v":99')
    with pytest.raises(WireError, match="wire schema mismatch"):
        decode_frame(line)


def test_decode_rejects_missing_version():
    with pytest.raises(WireError, match="wire schema mismatch"):
        decode_frame(json.dumps({"type": "ping"}))


def test_decode_rejects_garbage():
    with pytest.raises(WireError, match="not valid JSON"):
        decode_frame(b"{nope")
    with pytest.raises(WireError, match="JSON object"):
        decode_frame(b"[1,2,3]")
    with pytest.raises(WireError, match="not UTF-8"):
        decode_frame(b"\xff\xfe")


def test_telemetry_frame_round_trips_typed_event():
    event = _event()
    frame = telemetry_frame(event, job="abc123")
    assert frame["type"] == "telemetry"
    assert frame["job"] == "abc123"
    # Over the wire and back: the typed event survives intact.
    restored = event_from_frame(decode_frame(encode_frame(frame)))
    assert restored == event


def test_event_from_frame_rejects_other_frames():
    with pytest.raises(WireError, match="not a telemetry frame"):
        event_from_frame({"type": "result"})


def test_span_frame_round_trips_span_event():
    span = SpanEvent(
        time=3, trace_id="t" * 16, name="execute", job="abc123",
        parent=0, cycles=1024, detail="k", wall_start_us=5, wall_dur_us=9,
    )
    frame = span_frame(span, job="abc123")
    assert frame["type"] == "span" and frame["job"] == "abc123"
    restored = span_from_frame(decode_frame(encode_frame(frame)))
    assert restored == span
    with pytest.raises(WireError, match="not a span frame"):
        span_from_frame({"type": "telemetry"})


def test_wire_sink_sends_one_frame_per_event():
    frames = []
    sink = WireSink(frames.append, job="j1")
    for t in range(3):
        sink.emit(_event(time=t))
    assert sink.sent == 3
    assert [f["event"]["time"] for f in frames] == [0, 1, 2]
    assert all(f["job"] == "j1" and f["type"] == "telemetry" for f in frames)


def test_wire_sink_frames_match_jsonl_serialization():
    """The streamed event payload is byte-identical to a JsonlSink line."""
    frames = []
    sink = WireSink(frames.append)
    event = _event()
    sink.emit(event)
    streamed = json.dumps(
        frames[0]["event"], sort_keys=True, separators=(",", ":")
    )
    local = json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
    assert streamed == local
