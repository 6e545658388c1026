"""Wire format for telemetry and service frames.

Everything that crosses the sweep-service socket is a *frame*: one JSON
object per line (``\\n``-terminated, UTF-8, canonical key order) carrying
a ``"v"`` wire-schema tag.  The same framing is used in both directions —
client requests, server responses, and streamed telemetry all share it —
so one :func:`encode_frame`/:func:`decode_frame` pair is the entire
transport layer.

:data:`WIRE_SCHEMA` versions the frame layout, *not* the payloads inside
it: spec and result payloads carry their own schema versions
(``SPEC_SCHEMA``/``RESULT_SCHEMA``) and telemetry events their ``kind``
tags.  A server answers a ``pong`` hello frame on ``ping`` so clients
can check compatibility before submitting work.  Both sides speak
exactly one version: a frame tagged with any other is rejected with a
``WireError`` (the server answers it with an ``error`` frame).

:class:`WireSink` is the bridge from the in-process event stream to the
wire: an :class:`~repro.telemetry.sinks.EventSink` (the PR 3 sink
interface) that renders each event as a ``telemetry`` frame and hands it
to a caller-supplied ``send`` callable.  The sweep service subscribes
one per streamed job; nothing about it is socket-specific, so tests can
collect frames in a plain list.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.errors import WireError
from repro.serialize import encode_canonical
from repro.telemetry.events import TraceEvent

from repro.telemetry.sinks import EventSink

#: Version tag of the line-oriented frame layout.  Bump on incompatible
#: changes to frame structure; v2 added trace/span context (a ``trace``
#: key on request frames, ``span`` frames streamed back) and the
#: ``metrics`` op.
WIRE_SCHEMA = 2

#: Hard cap on one encoded frame (guards the server against unbounded
#: lines from a confused client; generous for any real spec or result).
MAX_FRAME_BYTES = 16 * 1024 * 1024


def encode_frame(frame: dict) -> bytes:
    """Canonical single-line encoding of *frame* (adds the ``v`` tag).

    A top-level value that is already
    :class:`~repro.serialize.CanonicalJSON` text (a spec or result
    encoded once) is spliced in, not encoded again; the frame is
    byte-identical either way.
    """
    if "v" not in frame:
        frame = {"v": WIRE_SCHEMA, **frame}
    return encode_canonical(frame).encode("utf-8") + b"\n"


def decode_frame(line: bytes | str) -> dict:
    """Parse one received line into a frame dict.

    Raises :class:`~repro.errors.WireError` on anything that is not a
    single JSON object tagged with this side's :data:`WIRE_SCHEMA`.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise WireError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"frame is not UTF-8: {exc}") from None
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise WireError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise WireError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    version = frame.get("v")
    if version != WIRE_SCHEMA:
        raise WireError(
            f"wire schema mismatch: got v={version!r}, "
            f"this side speaks v={WIRE_SCHEMA}"
        )
    return frame


def telemetry_frame(event: TraceEvent, job: Optional[str] = None) -> dict:
    """The ``telemetry`` frame carrying one typed event.

    The ``v`` tag is added at encode time, not here.
    """
    frame = {"type": "telemetry", "event": event.to_dict()}
    if job is not None:
        frame["job"] = job
    return frame


def event_from_frame(frame: dict) -> TraceEvent:
    """Reconstruct the typed event inside a ``telemetry`` frame."""
    if frame.get("type") != "telemetry" or "event" not in frame:
        raise WireError(f"not a telemetry frame: {frame.get('type')!r}")
    return TraceEvent.from_dict(frame["event"])


def span_frame(event: TraceEvent, job: Optional[str] = None) -> dict:
    """The ``span`` frame carrying one closed tracing span."""
    frame = {"type": "span", "span": event.to_dict()}
    if job is not None:
        frame["job"] = job
    return frame


def span_from_frame(frame: dict) -> TraceEvent:
    """Reconstruct the :class:`~repro.telemetry.events.SpanEvent` inside
    a ``span`` frame."""
    if frame.get("type") != "span" or "span" not in frame:
        raise WireError(f"not a span frame: {frame.get('type')!r}")
    return TraceEvent.from_dict(frame["span"])


class WireSink(EventSink):
    """Event sink that streams each event over the wire as it happens.

    ``send`` receives one ready-to-encode ``telemetry`` frame dict per
    event; the sweep service passes a thread-safe enqueue bound to the
    submitting connection.  Pure function of the event stream: identical
    runs produce identical frame sequences, which is what makes a
    client-side JSONL of the streamed events byte-comparable with a
    local :class:`~repro.telemetry.sinks.JsonlSink` file.
    """

    def __init__(self, send: Callable[[dict], None], job: Optional[str] = None):
        self.send = send
        self.job = job
        self.sent = 0

    def emit(self, event: TraceEvent) -> None:
        self.send(telemetry_frame(event, self.job))
        self.sent += 1
