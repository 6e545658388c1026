"""Result containers produced by a simulation run.

A :class:`RunResult` holds one :class:`TaskResult` per task, and may hold
an :class:`EnergyBreakdown` and a :class:`Timeseries`.  These are the
records only: the energy model that computes a breakdown
(:mod:`repro.dram.power`) and the sampler that fills a timeseries
(:mod:`repro.telemetry.timeseries`) are part of the simulation kernel,
so reading, caching and serving results loads neither.

Every container round-trips losslessly through plain JSON dicts
(``to_dict`` / ``from_dict``) so results can live in the on-disk sweep
cache and cross process boundaries; equality after a round trip is exact
(JSON preserves float bit patterns via shortest-repr).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.metrics import harmonic_mean
from repro.errors import ConfigError
from repro.serialize import dataclass_from_dict, field_names

#: Version tag for the serialized result layout.  Bump whenever a field is
#: added/removed/renamed so stale disk-cache entries are recomputed.
RESULT_SCHEMA = 4


@dataclass
class EnergyBreakdown:
    """Energy per component over one measured interval, in millijoules."""

    background_mj: float
    activate_mj: float
    read_mj: float
    write_mj: float
    refresh_mj: float
    elapsed_ns: float

    @property
    def total_mj(self) -> float:
        return (
            self.background_mj
            + self.activate_mj
            + self.read_mj
            + self.write_mj
            + self.refresh_mj
        )

    @property
    def refresh_fraction(self) -> float:
        total = self.total_mj
        return self.refresh_mj / total if total > 0 else 0.0

    @property
    def average_power_mw(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        # mJ / ns = 1e6 W = 1e9 mW.
        return self.total_mj * 1e9 / self.elapsed_ns

    def __str__(self) -> str:
        return (
            f"EnergyBreakdown(total={self.total_mj:.3f}mJ, "
            f"refresh={self.refresh_mj:.3f}mJ [{self.refresh_fraction:.1%}], "
            f"avg={self.average_power_mw:.0f}mW)"
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in field_names(EnergyBreakdown)}

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyBreakdown":
        return dataclass_from_dict(cls, data)


@dataclass
class TimeseriesSample:
    """Aggregates over one sampling interval ending at cycle ``t``."""

    t: int
    instructions: int
    ipc: float
    reads_completed: int
    refresh_stall_fraction: float
    queue_depth: int

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "reads_completed": self.reads_completed,
            "refresh_stall_fraction": self.refresh_stall_fraction,
            "queue_depth": self.queue_depth,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimeseriesSample":
        return dataclass_from_dict(cls, data)


@dataclass
class Timeseries:
    """One run's sampled timeline."""

    interval_cycles: int
    samples: list[TimeseriesSample] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "interval_cycles": self.interval_cycles,
            "samples": [s.to_dict() for s in self.samples],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Timeseries":
        if not isinstance(data, dict):
            raise ConfigError(
                f"Timeseries: expected a dict, got {type(data).__name__}"
            )
        data = dict(data)
        try:
            samples = [
                TimeseriesSample.from_dict(s) for s in data.pop("samples", [])
            ]
        except (TypeError, AttributeError) as exc:
            raise ConfigError(f"Timeseries: malformed payload ({exc})") from None
        return dataclass_from_dict(cls, {**data, "samples": samples})

    def metric(self, name: str) -> list:
        """One column across all samples (e.g. ``metric("ipc")``)."""
        if name not in {f.name for f in fields(TimeseriesSample)}:
            raise ConfigError(f"unknown timeseries metric {name!r}")
        return [getattr(s, name) for s in self.samples]


@dataclass
class TaskResult:
    """Frozen snapshot of one task's performance."""

    task_id: int
    name: str
    instructions: int
    scheduled_cycles: int
    quanta: int
    reads_completed: int
    avg_read_latency_cycles: float
    refresh_stall_cycles: int

    @property
    def ipc(self) -> float:
        if self.scheduled_cycles == 0:
            return 0.0
        return self.instructions / self.scheduled_cycles

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in field_names(TaskResult)}

    @classmethod
    def from_dict(cls, data: dict) -> "TaskResult":
        return dataclass_from_dict(cls, data)


@dataclass
class RunResult:
    """Everything measured during one simulation run."""

    scenario: str
    workload: str
    density_gbit: int
    trefw_ms: float
    simulated_cycles: int
    tasks: list[TaskResult] = field(default_factory=list)
    reads_completed: int = 0
    writes_completed: int = 0
    avg_read_latency_cycles: float = 0.0
    cpu_per_mem_cycle: int = 4
    row_hit_rate: float = 0.0
    refresh_commands: int = 0
    refresh_stall_cycles: int = 0
    refresh_stalled_reads: int = 0
    context_switches: int = 0
    scheduler_clean_picks: int = 0
    scheduler_fallback_picks: int = 0
    bus_utilization: float = 0.0
    #: DRAM energy estimate over the measured interval (None when the
    #: result was constructed directly, e.g. in unit tests).
    energy: EnergyBreakdown | None = None
    #: Windowed samples (IPC, queue depth, refresh-stall fraction) when
    #: the spec requested them (``RunSpec.sample_windows``), else None.
    timeseries: Timeseries | None = None
    #: Invariant-monitor findings (``repro.obs.monitors``) when the run was
    #: monitored — an empty list means "monitored, clean".  ``None`` means
    #: the run was not monitored, and the field is then omitted from
    #: ``to_dict`` entirely so unmonitored result JSON is byte-identical
    #: to the pre-monitor layout.
    monitor_violations: list | None = None
    #: Trace id of the traced service submission that produced this
    #: result (``repro.tracing``).  ``None`` — the untraced default —
    #: is omitted from ``to_dict`` so cached result JSON and content
    #: hashes are byte-identical with and without the tracing layer.
    trace_id: str | None = None

    @property
    def hmean_ipc(self) -> float:
        """Harmonic mean of per-task IPC — the paper's headline metric."""
        return harmonic_mean([t.ipc for t in self.tasks])

    @property
    def avg_read_latency_mem_cycles(self) -> float:
        """Average read latency in memory-bus cycles (Figure 11 units)."""
        return self.avg_read_latency_cycles / self.cpu_per_mem_cycle

    @property
    def refresh_stall_fraction(self) -> float:
        """Fraction of completed reads whose start was delayed by refresh."""
        if self.reads_completed == 0:
            return 0.0
        return self.refresh_stalled_reads / self.reads_completed

    def to_dict(self) -> dict:
        """Canonical JSON-able view (inverse of :meth:`from_dict`)."""
        data = {name: getattr(self, name) for name in _SCALAR_FIELDS}
        data["tasks"] = [t.to_dict() for t in self.tasks]
        data["energy"] = self.energy.to_dict() if self.energy is not None else None
        data["timeseries"] = (
            self.timeseries.to_dict() if self.timeseries is not None else None
        )
        if self.monitor_violations is not None:
            data["monitor_violations"] = [
                v.to_dict() for v in self.monitor_violations
            ]
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        if not isinstance(data, dict):
            raise ConfigError(
                f"RunResult: expected a dict, got {type(data).__name__}"
            )
        data = dict(data)
        try:
            tasks = data.pop("tasks", [])
            try:
                data["tasks"] = [TaskResult(**t) for t in tasks]
            except TypeError:
                # Again through from_dict, which names what is wrong.
                data["tasks"] = [TaskResult.from_dict(t) for t in tasks]
            energy = data.pop("energy", None)
            data["energy"] = (
                EnergyBreakdown.from_dict(energy) if energy is not None else None
            )
            timeseries = data.pop("timeseries", None)
            data["timeseries"] = (
                Timeseries.from_dict(timeseries) if timeseries is not None else None
            )
            violations = data.pop("monitor_violations", None)
            if violations is not None:
                from repro.obs.monitors import MonitorViolation

                violations = [MonitorViolation.from_dict(v) for v in violations]
            data["monitor_violations"] = violations
        except (TypeError, AttributeError) as exc:
            raise ConfigError(f"RunResult: malformed payload ({exc})") from None
        return dataclass_from_dict(cls, data)

    def summary(self) -> str:
        lines = [
            f"scenario={self.scenario} workload={self.workload} "
            f"density={self.density_gbit}Gb tREFW={self.trefw_ms}ms",
            f"  hmean IPC          : {self.hmean_ipc:.4f}",
            f"  avg read latency   : {self.avg_read_latency_mem_cycles:.1f} mem cycles",
            f"  row hit rate       : {self.row_hit_rate:.2%}",
            f"  reads / writes     : {self.reads_completed} / {self.writes_completed}",
            f"  refresh commands   : {self.refresh_commands}",
            f"  refresh-stalled rd : {self.refresh_stalled_reads} "
            f"({self.refresh_stall_fraction:.2%})",
        ]
        return "\n".join(lines)


#: The RunResult fields ``to_dict`` copies as they are, in declaration
#: order; the nested and optional ones after them are converted by hand.
_SCALAR_FIELDS = tuple(
    name
    for name in field_names(RunResult)
    if name not in ("tasks", "energy", "timeseries", "monitor_violations", "trace_id")
)
