"""Schedule tracing: who ran on which core during which refresh stretch.

Attach a :class:`ScheduleTracer` to a built (not yet run) system and it
records every quantum dispatch together with the bank the refresh
scheduler is working on — the direct visual of the paper's Figure 9:

>>> from repro.core.simulator import build_system
>>> from repro.core.trace import ScheduleTracer
>>> system = build_system("WL-6", "codesign", refresh_scale=512)
>>> tracer = ScheduleTracer(system)
>>> _ = system.run(num_windows=1.0)
>>> print(tracer.timeline())  # doctest: +SKIP

The tracer is a consumer of the structured event stream: it subscribes a
:class:`~repro.telemetry.sinks.CallbackSink` to the system's
:class:`~repro.telemetry.hub.Telemetry` hub and keeps only the
:class:`~repro.telemetry.events.SchedulerPickEvent` records (which the
system enriches with the refresh schedule's view of each quantum).
"""

from __future__ import annotations

from repro.telemetry.events import SchedulerPickEvent, TraceEvent
from repro.telemetry.sinks import CallbackSink


class ScheduleTracer:
    """Keeps every quantum dispatch of a system as its pick event."""

    def __init__(self, system):
        self.system = system
        self.records: list[SchedulerPickEvent] = []
        system.telemetry.subscribe(CallbackSink(self._observe))

    def _observe(self, event: TraceEvent) -> None:
        if isinstance(event, SchedulerPickEvent):
            self.records.append(event)

    # -- analysis ----------------------------------------------------------------

    def conflicts(self) -> list[SchedulerPickEvent]:
        """Dispatches where the chosen task has data in the refresh bank
        (these are exactly the quanta that can suffer refresh stalls)."""
        return [r for r in self.records if r.conflict]

    def conflict_free_fraction(self) -> float:
        if not self.records:
            return 0.0
        return 1.0 - len(self.conflicts()) / len(self.records)

    def quanta(self) -> list[int]:
        return sorted({r.time for r in self.records})

    # -- rendering -----------------------------------------------------------------

    def timeline(self, max_quanta: int = 32) -> str:
        """ASCII timeline: one row per core plus the refresh row, one
        column per quantum (Figure 9 in text form).  Conflicting
        dispatches are marked with ``*``."""
        times = self.quanta()[:max_quanta]
        if not times:
            return "(no records)"
        num_cores = len(self.system.cores)
        # Tasks are labelled t<n> with n positional within this system, so
        # identical benchmark copies stay distinguishable.
        task_labels = {
            task.task_id: f"t{i}" for i, task in enumerate(self.system.tasks)
        }
        width = max(len(label) for label in task_labels.values()) + 2

        def cell(text: str) -> str:
            return text.rjust(width)

        header = cell("q#") + "".join(cell(str(i)) for i in range(len(times)))
        lines = [header]
        by_key = {(r.time, r.core_id): r for r in self.records}
        for core in range(num_cores):
            row = [cell(f"c{core}")]
            for t in times:
                record = by_key.get((t, core))
                if record is None or record.task_id is None:
                    row.append(cell("-"))
                else:
                    mark = "*" if record.conflict else ""
                    row.append(cell(task_labels.get(record.task_id, "??") + mark))
            lines.append("".join(row))
        refresh_row = [cell("ref")]
        for t in times:
            any_record = next((r for r in self.records if r.time == t), None)
            bank = any_record.refresh_bank if any_record else None
            refresh_row.append(cell(f"b{bank}" if bank is not None else "?"))
        lines.append("".join(refresh_row))
        lines.append("(* = task has data in the bank being refreshed)")
        return "\n".join(lines)
