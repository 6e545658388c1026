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

Every name below is imported from its module on first access
(:func:`repro.lazy_exports`), so ``import repro.telemetry.wire`` loads
neither the event classes nor the hub: the serving path needs only the
wire format, and the rest loads with the first traced, streamed or
simulated job.
"""

from repro import lazy_exports

#: Each public name -> the module that defines it, imported on first
#: access.
_EXPORTS = {
    "EVENT_TYPES": "repro.telemetry.events",
    "DramCommandEvent": "repro.telemetry.events",
    "PageAllocEvent": "repro.telemetry.events",
    "RefreshCommandEvent": "repro.telemetry.events",
    "RefreshStretchBeginEvent": "repro.telemetry.events",
    "RefreshStretchEndEvent": "repro.telemetry.events",
    "SchedulerPickEvent": "repro.telemetry.events",
    "SpanEvent": "repro.telemetry.events",
    "TaskMigrationEvent": "repro.telemetry.events",
    "TraceEvent": "repro.telemetry.events",
    "Telemetry": "repro.telemetry.hub",
    "MetricsRegistry": "repro.telemetry.registry",
    "CallbackSink": "repro.telemetry.sinks",
    "ChromeTraceSink": "repro.telemetry.sinks",
    "EventSink": "repro.telemetry.sinks",
    "JsonlSink": "repro.telemetry.sinks",
    "RingBufferSink": "repro.telemetry.sinks",
    "read_jsonl": "repro.telemetry.sinks",
    "strip_span_walls": "repro.telemetry.sinks",
    "StatsBase": "repro.telemetry.stats",
    "Timeseries": "repro.core.results",
    "TimeseriesSample": "repro.core.results",
    "TimeseriesSampler": "repro.telemetry.timeseries",
    "WIRE_SCHEMA": "repro.telemetry.wire",
    "WireSink": "repro.telemetry.wire",
    "decode_frame": "repro.telemetry.wire",
    "encode_frame": "repro.telemetry.wire",
    "event_from_frame": "repro.telemetry.wire",
    "span_frame": "repro.telemetry.wire",
    "span_from_frame": "repro.telemetry.wire",
    "telemetry_frame": "repro.telemetry.wire",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
