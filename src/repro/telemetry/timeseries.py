"""Windowed timeseries sampling attached to a run.

When a :class:`~repro.core.runspec.RunSpec` sets ``sample_windows = N``,
the system schedules :class:`TimeseriesSampler` ticks every
``tREFW / N`` cycles over the measured interval and attaches the
resulting :class:`Timeseries` to the :class:`~repro.core.results.RunResult`.
Each sample covers one interval and reports aggregate IPC, the
instantaneous controller queue depth, and the refresh-stall fraction of
the reads completing inside the interval — the quantities the paper's
timeline figures (9-11) are drawn from, now available from any run.
The records it fills, :class:`Timeseries` and :class:`TimeseriesSample`,
live with the other result records in :mod:`repro.core.results`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.results import Timeseries, TimeseriesSample
from repro.core.state import INT, Stateful, record
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import System


class TimeseriesSampler(Stateful):
    """Engine-driven periodic sampler over a system's live stats.

    Its checkpoint holds the accumulated samples and the delta baselines;
    the pending tick is an engine event, captured by the engine snapshot.
    """

    STATE = (
        ("timeseries", record(Timeseries)),
        ("_end", INT),
        ("_last_t", INT),
        ("_last_instructions", INT),
        ("_last_reads", INT),
        ("_last_stalled", INT),
    )

    def __init__(self, system: "System", samples_per_window: int):
        if samples_per_window < 1:
            raise ConfigError(
                f"samples_per_window must be >= 1, got {samples_per_window}"
            )
        self.system = system
        self.interval = max(1, system.window_cycles // samples_per_window)
        self.timeseries = Timeseries(interval_cycles=self.interval)
        self._end = 0
        self._last_t = 0
        self._last_instructions = 0
        self._last_reads = 0
        self._last_stalled = 0

    # -- counter reads --------------------------------------------------------

    def _instructions(self) -> int:
        # Flush fast-forwarded compute-gap credits before reading.
        now = self.system.engine.now
        for core in self.system.cores:
            core.sync_accounting(now)
        return sum(t.stats.instructions for t in self.system.tasks)

    # -- driving --------------------------------------------------------------

    def start(self, measure_start: int, end: int) -> None:
        """Arm sampling ticks covering ``[measure_start, end]``."""
        mc = self.system.controller.stats
        self._end = end
        self._last_t = measure_start
        self._last_instructions = self._instructions()
        self._last_reads = mc.reads_completed
        self._last_stalled = mc.refresh_stalled_reads
        self._schedule_next()

    def _schedule_next(self) -> None:
        next_t = min(self._last_t + self.interval, self._end)
        if next_t > self.system.engine.now:
            self.system.engine.schedule_at(next_t, self._tick)

    def _tick(self) -> None:
        now = self.system.engine.now
        mc = self.system.controller.stats
        instructions = self._instructions()
        reads = mc.reads_completed
        stalled = mc.refresh_stalled_reads

        cycles = now - self._last_t
        cores = len(self.system.cores)
        delta_instr = instructions - self._last_instructions
        delta_reads = reads - self._last_reads
        delta_stalled = stalled - self._last_stalled
        self.timeseries.samples.append(
            TimeseriesSample(
                t=now,
                instructions=delta_instr,
                ipc=delta_instr / (cycles * cores) if cycles > 0 else 0.0,
                reads_completed=delta_reads,
                refresh_stall_fraction=(
                    delta_stalled / delta_reads if delta_reads > 0 else 0.0
                ),
                queue_depth=(
                    self.system.controller.read_count
                    + self.system.controller.write_count
                ),
            )
        )
        self._last_t = now
        self._last_instructions = instructions
        self._last_reads = reads
        self._last_stalled = stalled
        if now < self._end:
            self._schedule_next()

    def result(self) -> Timeseries:
        return self.timeseries
