"""Pluggable event sinks for the structured event stream.

Sink matrix:

==================  ============================================================
Sink                Use case
==================  ============================================================
:class:`RingBufferSink`
                    Keep the last *N* events in memory (post-mortem peeks).
:class:`CallbackSink`
                    Invoke a function per event (in-process consumers such as
                    :class:`~repro.core.trace.ScheduleTracer`).
:class:`JsonlSink`  Append one JSON object per event to a file; reload with
                    :func:`read_jsonl`.
:class:`ChromeTraceSink`
                    Chrome trace-event JSON loadable in Perfetto /
                    ``chrome://tracing``: refresh stretches and per-core
                    scheduler picks appear as separate tracks.
==================  ============================================================
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.events import SpanEvent, TraceEvent


class EventSink:
    """Interface: receives every emitted event; ``close`` flushes."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""


class CallbackSink(EventSink):
    """Calls ``fn(event)`` for every event."""

    def __init__(self, fn: Callable[[TraceEvent], None]):
        self.fn = fn

    def emit(self, event: TraceEvent) -> None:
        self.fn(event)


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events, evicting the oldest."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._buffer.append(event)
        self.emitted += 1

    def events(self) -> list[TraceEvent]:
        """Retained events, oldest first."""
        return list(self._buffer)

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return max(0, self.emitted - len(self._buffer))

    def clear(self) -> None:
        self._buffer.clear()
        self.emitted = 0


class JsonlSink(EventSink):
    """Writes one canonical-JSON object per line to *path*.

    Usable as a context manager: ``__exit__`` closes (and therefore
    flushes) the file even when the managed block raises, so a run
    aborted mid-stream leaves a file of complete records rather than a
    truncated last line::

        with JsonlSink("events.jsonl") as sink:
            telemetry.subscribe(sink)
            system.run()
    """

    def __init__(self, path):
        self.path = path
        self._file = open(path, "w", encoding="utf-8")
        self.written = 0

    def emit(self, event: TraceEvent) -> None:
        # One-shot dumps runs the C encoder; json.dump would not.
        self._file.write(
            json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        self.written += 1

    def flush(self) -> None:
        """Push buffered records to disk without closing the sink."""
        if not self._file.closed:
            self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_jsonl(path) -> list[TraceEvent]:
    """Reload a :class:`JsonlSink` file into typed events.

    A line that is not a whole event — torn by a cut-short write, not
    UTF-8, or of an unknown kind or payload — raises
    :class:`~repro.errors.ConfigError` naming the path and the 1-based
    line number.
    """
    from repro.telemetry.events import TraceEvent

    events = []
    with open(path, "rb") as f:
        for number, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    events.append(TraceEvent.from_dict(json.loads(line)))
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: line {number} is not UTF-8 ({exc.reason})") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}: line {number} is not a whole JSON event ({exc.msg})"
                ) from None
            except ConfigError as exc:
                raise ConfigError(f"{path}: line {number}: {exc}") from None
    return events


class ChromeTraceSink(EventSink):
    """Builds Chrome trace-event JSON (the Perfetto/about:tracing format).

    Track layout (one ``ts`` unit = one CPU cycle, displayed as µs):

    * pid 1 ``dram`` / tid 0 ``refresh stretches`` — one complete ("X")
      slice per same-bank refresh stretch, named ``refresh b<bank>``;
    * pid 1 ``dram`` / tid 1 ``refresh commands`` — one slice per
      individual refresh command (every policy);
    * pid 2 ``cpu`` / tid *c* ``core c`` — one slice per quantum dispatch,
      named after the running task, with conflict/refresh-bank details in
      ``args``; idle quanta are skipped;
    * task migrations appear as instant ("i") events on the destination
      core's track;
    * pid 3 ``service`` / tid *lane* — one slice per closed tracing span
      (:class:`~repro.telemetry.events.SpanEvent`), laid out in per-tier
      lanes (``SPAN_LANES``) so a whole sweep's resolution path renders
      as parallel swimlanes.  Span ``ts``/``dur`` come from the span's
      wall-clock fields (normalized so the earliest span starts at 0)
      and are therefore artifact-only: strip them with
      :func:`strip_span_walls` before comparing traces byte-for-byte.

    DRAM command events are high-volume and skipped unless
    ``include_dram_commands=True``.

    The simulation tracks (pids 1–2) are a pure function of the event
    stream: two identical runs produce byte-identical files.  Span
    slices are additionally sorted by ``(trace_id, job, span id)`` at
    export, because concurrent jobs close spans in nondeterministic
    wall order.
    """

    PID_DRAM = 1
    PID_CPU = 2
    PID_SERVICE = 3
    TID_STRETCH = 0
    TID_REFRESH_CMD = 1

    #: Span names with dedicated service lanes, in lane (tid) order.
    #: Unknown names share the overflow lane after the last entry.
    SPAN_LANES = ("resolve", "memo", "dedup", "cache", "execute",
                  "run_spec", "restore", "live")

    def __init__(self, include_dram_commands: bool = False):
        self.include_dram_commands = include_dram_commands
        self._slices: list[dict] = []
        self._span_events: list[SpanEvent] = []
        self._open_stretch: Optional[tuple[int, int]] = None  # (bank, begin)
        self._cores: set[int] = set()
        self.dropped = 0  # events outside the track layout (e.g. allocs)

    # -- event intake ---------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        # Dispatch on the ``kind`` tag each event class declares (the same
        # tag JSONL lines and wire frames carry), so this module needs no
        # event class at import.
        kind = event.kind
        if kind == "refresh.stretch_begin":
            self._open_stretch = (event.bank, event.time)
        elif kind == "refresh.stretch_end":
            if self._open_stretch is not None:
                bank, begin = self._open_stretch
                self._open_stretch = None
                self._slices.append({
                    "name": f"refresh b{bank}",
                    "cat": "refresh",
                    "ph": "X",
                    "ts": begin,
                    "dur": max(0, event.time - begin),
                    "pid": self.PID_DRAM,
                    "tid": self.TID_STRETCH,
                    "args": {"bank": bank},
                })
        elif kind == "dram.refresh":
            name = "REF" if event.all_bank else f"REFpb b{event.bank}"
            self._slices.append({
                "name": name,
                "cat": "refresh",
                "ph": "X",
                "ts": event.time,
                "dur": event.duration,
                "pid": self.PID_DRAM,
                "tid": self.TID_REFRESH_CMD,
                "args": {
                    "channel": event.channel,
                    "rank": event.rank,
                    "bank": event.bank,
                },
            })
        elif kind == "sched.pick":
            self._cores.add(event.core_id)
            if event.task_id is None:
                return  # idle quantum: leave the track empty
            self._slices.append({
                "name": event.task_name,
                "cat": "sched",
                "ph": "X",
                "ts": event.time,
                "dur": event.quantum_cycles,
                "pid": self.PID_CPU,
                "tid": event.core_id,
                "args": {
                    "task_id": event.task_id,
                    "refresh_bank": event.refresh_bank,
                    "conflict": event.conflict,
                },
            })
        elif kind == "os.migrate":
            self._cores.add(event.dst_cpu)
            self._slices.append({
                "name": f"migrate t{event.task_id}",
                "cat": "sched",
                "ph": "i",
                "s": "t",
                "ts": event.time,
                "pid": self.PID_CPU,
                "tid": event.dst_cpu,
                "args": {"task_id": event.task_id, "from": event.src_cpu},
            })
        elif kind == "dram.cmd":
            if not self.include_dram_commands:
                self.dropped += 1
                return
            self._slices.append({
                "name": event.op,
                "cat": "dram",
                "ph": "X",
                "ts": max(0, event.time - event.latency),
                "dur": event.latency,
                "pid": self.PID_DRAM,
                "tid": 2 + event.bank,
                "args": {
                    "task_id": event.task_id,
                    "row_hit": event.row_hit,
                    "refresh_stall": event.refresh_stall,
                },
            })
        elif kind == "trace.span":
            self._span_events.append(event)
        else:
            self.dropped += 1

    # -- export ---------------------------------------------------------------

    def _metadata(self) -> list[dict]:
        def meta(pid, tid, key, name):
            entry = {"ph": "M", "pid": pid, "name": key, "args": {"name": name}}
            if tid is not None:
                entry["tid"] = tid
            return entry

        events = [
            meta(self.PID_DRAM, None, "process_name", "dram"),
            meta(self.PID_DRAM, self.TID_STRETCH, "thread_name",
                 "refresh stretches"),
            meta(self.PID_DRAM, self.TID_REFRESH_CMD, "thread_name",
                 "refresh commands"),
            meta(self.PID_CPU, None, "process_name", "cpu"),
        ]
        for core in sorted(self._cores):
            events.append(
                meta(self.PID_CPU, core, "thread_name", f"core {core}")
            )
        if self._span_events:
            events.append(meta(self.PID_SERVICE, None, "process_name",
                               "service"))
            for tid in sorted({self._span_lane(s.name)
                               for s in self._span_events}):
                if tid < len(self.SPAN_LANES):
                    lane = self.SPAN_LANES[tid]
                else:
                    lane = "other"
                events.append(meta(self.PID_SERVICE, tid, "thread_name",
                                   lane))
        return events

    @classmethod
    def _span_lane(cls, name: str) -> int:
        try:
            return cls.SPAN_LANES.index(name)
        except ValueError:
            return len(cls.SPAN_LANES)

    def _span_slices(self) -> list[dict]:
        """Span slices in deterministic order with normalized wall times.

        Sorted by ``(trace_id, job, span id)`` — never by wall time —
        and shifted so the earliest span starts at ts 0, which keeps the
        trace small and makes the *structure* reproducible even though
        the ts/dur values themselves are wall artifacts.
        """
        if not self._span_events:
            return []
        base = min(s.wall_start_us for s in self._span_events)
        ordered = sorted(self._span_events,
                         key=lambda s: (s.trace_id, s.job, s.span_id))
        slices = []
        for span in ordered:
            slices.append({
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": span.wall_start_us - base,
                "dur": span.wall_dur_us,
                "pid": self.PID_SERVICE,
                "tid": self._span_lane(span.name),
                "args": {
                    "trace": span.trace_id,
                    "job": span.job,
                    "span": span.span_id,
                    "parent": span.parent,
                    "cycles": span.cycles,
                    "detail": span.detail,
                },
            })
        return slices

    def trace(self) -> dict:
        """The complete Chrome trace object (an unfinished stretch at the
        end of the run is dropped — its end time is unknown)."""
        return {
            "displayTimeUnit": "ms",
            "metadata": {"unit": "1 ts = 1 CPU cycle"},
            "traceEvents": self._metadata() + self._slices
            + self._span_slices(),
        }

    def to_json(self) -> str:
        """Deterministic JSON text (byte-identical for identical runs)."""
        return json.dumps(self.trace(), sort_keys=True, indent=1)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())
            f.write("\n")


def strip_span_walls(trace: dict) -> dict:
    """Copy of a Chrome trace with span wall fields zeroed.

    Span slices (``cat == "span"``) carry wall-clock ``ts``/``dur``;
    zeroing them leaves only the deterministic structure (names, lanes,
    args, order), which is what two identical submissions must agree on
    byte-for-byte.  Simulation slices are untouched — their timestamps
    are simulated cycles and already deterministic.
    """
    stripped = dict(trace)
    stripped["traceEvents"] = [
        {**ev, "ts": 0, "dur": 0} if ev.get("cat") == "span" else ev
        for ev in trace.get("traceEvents", [])
    ]
    return stripped
