"""Unified telemetry layer: metrics registry, events, sinks, timeseries.

Three pillars (see ``docs/OBSERVABILITY.md``):

* :class:`MetricsRegistry` — hierarchical dotted-name snapshots of every
  ``*Stats`` object (``dram.ch0.rk0.bank3.row_hits``), glob-queryable and
  JSON-exportable;
* the structured event stream — typed :class:`TraceEvent` records fanned
  out by the per-system :class:`Telemetry` hub to pluggable sinks,
  including a Chrome trace-event exporter loadable in Perfetto;
* :class:`Timeseries` — windowed samples (IPC, queue depth, refresh-stall
  fraction) attached to :class:`~repro.core.results.RunResult`.
"""

from repro.telemetry.events import (
    EVENT_TYPES,
    DramCommandEvent,
    PageAllocEvent,
    RefreshCommandEvent,
    RefreshStretchBeginEvent,
    RefreshStretchEndEvent,
    SchedulerPickEvent,
    SpanEvent,
    TaskMigrationEvent,
    TraceEvent,
)
from repro.telemetry.hub import Telemetry
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sinks import (
    CallbackSink,
    ChromeTraceSink,
    EventSink,
    JsonlSink,
    NullSink,
    RingBufferSink,
    read_jsonl,
    strip_span_walls,
)
from repro.telemetry.stats import StatsBase
from repro.telemetry.timeseries import (
    Timeseries,
    TimeseriesSample,
    TimeseriesSampler,
)
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

__all__ = [
    "EVENT_TYPES",
    "CallbackSink",
    "ChromeTraceSink",
    "DramCommandEvent",
    "EventSink",
    "JsonlSink",
    "MetricsRegistry",
    "NullSink",
    "PageAllocEvent",
    "RefreshCommandEvent",
    "RefreshStretchBeginEvent",
    "RefreshStretchEndEvent",
    "RingBufferSink",
    "SchedulerPickEvent",
    "SpanEvent",
    "StatsBase",
    "TaskMigrationEvent",
    "Telemetry",
    "Timeseries",
    "TimeseriesSample",
    "TimeseriesSampler",
    "TraceEvent",
    "WIRE_SCHEMA",
    "WireSink",
    "decode_frame",
    "encode_frame",
    "event_from_frame",
    "read_jsonl",
    "span_frame",
    "span_from_frame",
    "strip_span_walls",
    "telemetry_frame",
]
