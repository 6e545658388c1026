"""Blocking client for the sweep service.

One :class:`ServiceClient` wraps one TCP connection speaking the frame
protocol of :mod:`repro.telemetry.wire`.  The client is synchronous and
single-request (it does not pipeline): each call sends one request frame
and reads response frames until the matching terminal frame arrives.
Concurrency across clients is the server's job — open one client per
thread/process and let the future-per-hash table collapse duplicate
work.

Connecting retries with bounded exponential backoff (``retry_delay``
doubling up to ``retry_max_delay`` — jitterless, so the schedule is
deterministic and testable) and raises
:class:`~repro.errors.ServiceUnavailable` once the budget is spent.

Specs travel as the canonical JSON text each ``RunSpec`` keeps beside
its content hash, sent as a JSON string (wire v3,
:func:`~repro.telemetry.wire.spec_payload`).  A ``result`` frame carries
the job's hash, its source and the result, not the spec: a caller keys
results by the specs it sent.

Tracing: pass ``trace=True`` to ``submit``/``sweep`` and the client
mints a deterministic trace id — ``sha256(request digest : submission
counter)``, the digest covering the spec text as sent — that the server
threads through every resolution tier and stamps onto the served result
copy (``RunResult.trace_id``).  Closed spans stream back as ``span``
frames and land on :attr:`SweepOutcome.spans`.

>>> from repro.service import ServiceClient
>>> with ServiceClient(port=7341) as client:          # doctest: +SKIP
...     result, source = client.submit(spec)
...     outcome = client.sweep(workloads=["WL-6"],
...                            scenarios=["all_bank", "codesign"])
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.results import RunResult
from repro.core.runspec import RunSpec
from repro.errors import (
    MonitorError,
    ServiceError,
    ServiceUnavailable,
    WireError,
)
from repro.telemetry.wire import (
    DEFAULT_PORT,
    decode_frame,
    encode_frame,
    spec_payload,
    span_from_frame,
)
from repro.tracing import mint_trace_id, request_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.events import SpanEvent

#: ``on_event`` callback signature: (event payload dict, job hash).
EventCallback = Callable[[dict, Optional[str]], None]

#: ``on_span`` callback signature: one closed span as it streams in.
SpanCallback = Callable[["SpanEvent"], None]


def backoff_schedule(
    retries: int, base: float, cap: float
) -> list[float]:
    """The deterministic connect-retry delays: ``base`` doubling per
    attempt, clipped at ``cap``.  No jitter — tests assert the exact
    schedule, and a local service has no thundering herd to spread."""
    return [min(cap, base * (2 ** i)) for i in range(retries)]


@dataclass
class SweepOutcome:
    """Everything a sweep submission returned.

    ``results`` is keyed by spec content hash; ``jobs`` preserves the
    server's submission order; ``sources`` records how each job was
    answered (``executed``/``live``/``cache``/``memo``/``dedup``);
    ``errors`` maps failed jobs to their error messages.  For traced
    submissions, ``trace`` is the minted trace id and ``spans`` holds
    the streamed :class:`~repro.telemetry.events.SpanEvent` records in
    arrival order.
    """

    jobs: list[str] = field(default_factory=list)
    results: dict[str, RunResult] = field(default_factory=dict)
    sources: dict[str, str] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    trace: Optional[str] = None
    spans: list[SpanEvent] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class ServiceClient:
    """Line-frame client over one blocking TCP connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = None,
        connect_retries: int = 0,
        retry_delay: float = 0.2,
        retry_max_delay: float = 2.0,
    ):
        self.host = host
        self.port = port
        delays = backoff_schedule(connect_retries, retry_delay,
                                  retry_max_delay)
        last_error: Optional[Exception] = None
        for attempt in range(connect_retries + 1):
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except OSError as exc:
                last_error = exc
                if attempt < connect_retries:
                    time.sleep(delays[attempt])
        else:
            raise ServiceUnavailable(
                f"cannot connect to repro service at {host}:{port} "
                f"after {connect_retries + 1} attempt(s): {last_error}"
            )
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        self._trace_seq = 0

    # -- transport -------------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _send(self, frame: dict) -> int:
        self._next_id += 1
        frame = {"id": self._next_id, **frame}
        self._sock.sendall(encode_frame(frame))
        return self._next_id

    def _recv(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ServiceError(
                f"connection to {self.host}:{self.port} closed by server"
            )
        return decode_frame(line)

    def _recv_for(self, rid: int) -> dict:
        """Next frame addressed to request *rid* (others are dropped —
        this client never pipelines, so there should be none)."""
        while True:
            frame = self._recv()
            if frame.get("id") in (rid, None):
                return frame

    def _mint_trace(self, request: dict) -> str:
        """Deterministic per-submission trace id (see module docstring)."""
        self._trace_seq += 1
        return mint_trace_id(request_digest(request), self._trace_seq)

    # -- small ops -------------------------------------------------------------

    def ping(self) -> dict:
        """Server hello: wire/spec/result schema versions and backend."""
        rid = self._send({"op": "ping"})
        frame = self._recv_for(rid)
        if frame.get("type") != "pong":
            raise WireError(f"expected pong, got {frame.get('type')!r}")
        return frame

    def status(self) -> dict:
        """The service counter snapshot (dedup/memo/disk/executed)."""
        rid = self._send({"op": "status"})
        frame = self._recv_for(rid)
        if frame.get("type") != "status":
            raise WireError(f"expected status, got {frame.get('type')!r}")
        return frame["counters"]

    def metrics(self) -> dict:
        """The server's metrics frame: lifetime ``counters``, the
        gate-safe ``deterministic`` snapshot (tier hits + simulated-
        cycles histograms), the artifact-only ``wall`` histograms,
        ``recent_spans``, and the Prometheus ``text`` exposition."""
        rid = self._send({"op": "metrics"})
        frame = self._recv_for(rid)
        if frame.get("type") != "metrics":
            raise WireError(f"expected metrics, got {frame.get('type')!r}")
        return frame

    def shutdown(self) -> None:
        """Ask the server to stop serving (acknowledged, then closed)."""
        rid = self._send({"op": "shutdown"})
        self._recv_for(rid)

    # -- submissions -----------------------------------------------------------

    def submit(
        self,
        spec: RunSpec,
        stream: bool = False,
        monitors: Optional[str] = None,
        on_event: Optional[EventCallback] = None,
        trace: bool = False,
        on_span: Optional[SpanCallback] = None,
    ) -> tuple[RunResult, str]:
        """Submit one spec; blocks until its result frame arrives.

        Returns ``(result, source)``.  With ``stream=True`` each
        telemetry frame's event payload is passed to ``on_event`` as it
        arrives.  With ``trace=True`` the submission is traced
        end-to-end and the result carries ``trace_id``.  A
        strict-monitored violation raises
        :class:`~repro.errors.MonitorError`; other server-side failures
        raise :class:`~repro.errors.ServiceError`.
        """
        request = {
            "op": "submit",
            "spec": spec_payload(spec.canonical_json()),
            "stream": bool(stream or on_event),
            "monitors": monitors,
        }
        outcome = self._submit_frames(
            request,
            on_event=on_event,
            on_span=on_span,
            trace=trace or on_span is not None,
        )
        if outcome.errors:
            job, message = next(iter(outcome.errors.items()))
            if outcome.sources.get(job) == "monitor_error":
                raise MonitorError(message)
            raise ServiceError(message)
        job = outcome.jobs[0]
        return outcome.results[job], outcome.sources[job]

    def sweep(
        self,
        specs: Optional[list[RunSpec]] = None,
        workloads: Optional[list[str]] = None,
        scenarios: Optional[list[str]] = None,
        options: Optional[dict] = None,
        stream: bool = False,
        monitors: Optional[str] = None,
        on_event: Optional[EventCallback] = None,
        on_result: Optional[Callable[[str, RunResult, str], None]] = None,
        trace: bool = False,
        on_span: Optional[SpanCallback] = None,
    ) -> SweepOutcome:
        """Submit a whole sweep; blocks until the ``done`` frame.

        Either pass explicit ``specs`` or let the server decompose a
        ``workloads`` x ``scenarios`` matrix (``options`` forwards
        keyword arguments to
        :func:`repro.core.simulator.sweep_specs`).  ``on_result`` fires
        per shard in completion order.  With ``trace=True`` every shard
        is traced under one trace id (``outcome.trace``/``.spans``).
        """
        frame: dict = {"op": "sweep", "stream": bool(stream or on_event)}
        if monitors is not None:
            frame["monitors"] = monitors
        if specs is not None:
            frame["specs"] = [spec_payload(spec.canonical_json()) for spec in specs]
        else:
            frame["workloads"] = list(workloads or [])
            frame["scenarios"] = list(scenarios or [])
            if options:
                frame["options"] = options
        return self._submit_frames(
            frame,
            on_event=on_event,
            on_result=on_result,
            on_span=on_span,
            trace=trace or on_span is not None,
        )

    def _submit_frames(
        self,
        request: dict,
        on_event: Optional[EventCallback] = None,
        on_result=None,
        on_span: Optional[SpanCallback] = None,
        trace: bool = False,
    ) -> SweepOutcome:
        outcome = SweepOutcome()
        if trace:
            outcome.trace = self._mint_trace(request)
            request = {**request, "trace": outcome.trace}
        rid = self._send(request)
        while True:
            frame = self._recv_for(rid)
            kind = frame.get("type")
            if kind == "ack":
                outcome.jobs = list(frame.get("jobs", []))
            elif kind == "telemetry":
                if on_event is not None:
                    on_event(frame["event"], frame.get("job"))
            elif kind == "span":
                span = span_from_frame(frame)
                outcome.spans.append(span)
                if on_span is not None:
                    on_span(span)
            elif kind == "result":
                job = frame["job"]
                result = RunResult.from_dict(frame["result"])
                outcome.results[job] = result
                outcome.sources[job] = frame.get("source", "?")
                if on_result is not None:
                    on_result(job, result, outcome.sources[job])
            elif kind == "error":
                job = frame.get("job")
                message = frame.get("error", "unknown server error")
                if job is None:
                    # Request-level failure: no per-job frames follow.
                    raise ServiceError(message)
                outcome.errors[job] = message
                outcome.sources.setdefault(
                    job,
                    "monitor_error"
                    if frame.get("code") == "monitor"
                    else "error",
                )
            elif kind == "done":
                outcome.counters = frame.get("counters", {})
                for job, source in frame.get("sources", {}).items():
                    outcome.sources.setdefault(job, source)
                return outcome
            else:
                raise WireError(f"unexpected frame type {kind!r}")
