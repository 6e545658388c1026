"""Deterministic trace ids and span lifecycles.

A *trace* covers one client submission end to end; a *span* is one
closed interval of the request path inside it (a resolution tier, an
execution, a warm-start restore).  The design splits every span
along the ``bench_report`` convention:

* **deterministic fields** — trace id, span id, name, job, parent,
  simulated cycles, detail — are pure functions of the request stream
  and safe to gate CI on;
* **wall-clock fields** — start/duration in microseconds — are
  artifact-only, captured here (and nowhere else on the request path)
  so RPR001/RPR013 keep the simulation packages clock-free.

Trace ids are minted by the *client*: ``sha256(digest:sequence)`` over
the canonical request payload and a per-client submission counter, so
two identical submissions from one client get distinct but reproducible
ids, and a re-run of the same client program mints the same sequence.
Span ids are allocated sequentially in open order within one
``(trace_id, job)`` — concurrent jobs each get their own
:class:`JobTrace`, so id allocation never races across jobs and the
resulting id sequence is deterministic per job even when wall-clock
interleavings are not.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.serialize import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.events import SpanEvent

#: Hex length of a trace id (matches ``repro.serialize.HASH_LEN`` so
#: trace ids read like the spec hashes they travel with).
TRACE_ID_LEN = 16

#: Request-frame keys that feed the trace-id digest.  Only payload
#: content — never frame ids or wall time — so the digest is a pure
#: function of *what* was asked.
_DIGEST_KEYS = ("spec", "specs", "workloads", "scenarios", "options", "monitors")


def mint_trace_id(seed: str, sequence: int) -> str:
    """Deterministic trace id: ``sha256(seed:sequence)`` hex prefix."""
    raw = f"{seed}:{sequence}".encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:TRACE_ID_LEN]


def request_digest(frame: dict) -> str:
    """Content digest of a request frame's payload subset.

    Drops transport-level keys (``id``, ``v``, ``stream``...) so the
    same logical request always digests the same, whatever connection
    it arrives on.
    """
    payload = {k: frame[k] for k in _DIGEST_KEYS if k in frame}
    raw = canonical_json(payload).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:TRACE_ID_LEN]


def monotonic_us() -> int:
    """Monotonic wall clock in microseconds (artifact-only; the serving
    layer calls this instead of touching ``time`` directly)."""
    return time.perf_counter_ns() // 1000


class Span:
    """One open span; closes via context-manager exit or :meth:`close`.

    Deterministic payload fields are attached with :meth:`set`; the
    wall interval is captured automatically from the owning trace's
    clock.  Emission happens exactly once, at close.
    """

    __slots__ = ("_trace", "name", "span_id", "parent", "cycles", "detail",
                 "_start_ns", "_closed")

    def __init__(self, trace: "JobTrace", name: str, span_id: int,
                 parent: Optional[int]):
        self._trace = trace
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.cycles = 0
        self.detail = ""
        self._start_ns = trace.clock()
        self._closed = False

    def set(self, cycles: Optional[int] = None,
            detail: Optional[str] = None) -> "Span":
        """Attach deterministic payload fields; returns self for chaining."""
        if cycles is not None:
            self.cycles = cycles
        if detail is not None:
            self.detail = detail
        return self

    def close(self) -> SpanEvent:
        """Close the span and emit its :class:`SpanEvent` (idempotent on
        the emission: a second close raises)."""
        if self._closed:
            raise RuntimeError(f"span {self.name!r} already closed")
        self._closed = True
        end_ns = self._trace.clock()
        from repro.telemetry.events import SpanEvent  # loads with tracing

        event = SpanEvent(
            time=self.span_id,
            trace_id=self._trace.trace_id,
            name=self.name,
            job=self._trace.job,
            parent=self.parent,
            cycles=self.cycles,
            detail=self.detail,
            wall_start_us=self._start_ns // 1000,
            wall_dur_us=max(0, (end_ns - self._start_ns) // 1000),
        )
        self._trace.emit(event)
        return event

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class JobTrace:
    """Span factory for one ``(trace_id, job)`` pair.

    Hands out sequential span ids under a lock (spans may close on the
    event loop or the service's worker thread) and forwards each
    closed span to ``emit``.  ``clock`` is injectable so tests can pin
    wall fields to known values; it must return nanoseconds.
    """

    __slots__ = ("trace_id", "job", "emit", "clock", "_lock", "_next_id")

    def __init__(self, trace_id: str, job: str,
                 emit: Callable[[SpanEvent], None],
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.trace_id = trace_id
        self.job = job
        self.emit = emit
        self.clock = clock
        self._lock = threading.Lock()
        self._next_id = 0

    def span(self, name: str, parent: Optional[int] = None) -> Span:
        """Open a span; its id is allocated now, in program order."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, name, span_id, parent)
