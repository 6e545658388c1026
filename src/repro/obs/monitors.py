"""Online invariant monitors over the typed event stream.

The paper's central claims are *stream-checkable*: they can be verified
while the simulation runs, from the events the components already emit,
without touching simulator state.  Each :class:`Monitor` subscribes to a
subset of event kinds and records structured
:class:`MonitorViolation` records; a :class:`MonitorSuite` owns the
sink subscription and the dispatch table.

Monitors deliberately recompute their expectations from *configuration*
(timing, task bank vectors), never from the scheduler state they are
checking — a monitor that read ``scheduler._commands_per_bank`` would be
blind to exactly the bugs it exists to catch.

The checks:

``RefreshStretchMonitor`` (Algorithm 1)
    Under the same-bank schedule each bank's refresh activity is one
    contiguous stretch per retention window: stretch begins are aligned
    to the ``tREFW / numTotalBanks`` grid and cycle over the banks in
    order, every per-bank refresh command lands on the stretch's bank,
    each stretch carries exactly the planned number of commands (all
    rows covered once per tREFW), and the physical stretch length stays
    within a small service-latency slack of the nominal length.

``RefreshOverlapMonitor``
    No read/write column access is issued by a bank inside one of that
    bank's refresh-busy windows.

``SchedulerConflictMonitor`` (Algorithm 3)
    A refresh-aware quantum pick never selects a task with pages in the
    bank being refreshed that quantum — unless the pick is flagged as an
    ``eta_thresh`` fairness fallback, which is *counted*, not errored.

``AllocationPartitionMonitor`` (Algorithm 2)
    Every page allocation lands inside the task's
    ``possible_banks_vector``; soft-partition spills must be flagged as
    such, and a hard partition must never spill at all.

In **strict** mode a violation raises
:class:`~repro.errors.MonitorError` at the emission site (fail-fast);
the default collect mode gathers violations for the
:class:`~repro.core.results.RunResult`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import MonitorError
from repro.telemetry.events import TraceEvent
from repro.telemetry.hub import Telemetry
from repro.telemetry.sinks import CallbackSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import System

#: Retained refresh windows per bank in the overlap monitor.  Old windows
#: are pruned as commands complete; the cap only matters for banks that
#: see refreshes but no traffic, where it bounds memory at the cost of
#: forgetting windows far in the past (which completed commands can no
#: longer overlap anyway).
_MAX_WINDOWS_PER_BANK = 256


@dataclass
class MonitorViolation:
    """One observed invariant violation (structured, JSON round-trip)."""

    monitor: str
    time: int
    message: str
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "monitor": self.monitor,
            "time": self.time,
            "message": self.message,
            "context": self.context,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MonitorViolation":
        from repro.serialize import dataclass_from_dict

        return dataclass_from_dict(cls, data)

    def __str__(self) -> str:
        return f"[{self.monitor}] t={self.time}: {self.message}"


class Monitor:
    """Base invariant monitor: consumes events, records violations.

    Subclasses set ``name`` and ``kinds`` (the event kinds they want) and
    implement :meth:`observe`.  :meth:`bind` runs after the system is
    built and may set ``active = False`` when the invariant does not
    apply to the scenario (e.g. stretch checks under round-robin
    refresh); inactive monitors receive no events.
    """

    name = "monitor"
    #: Event ``kind`` tags this monitor consumes (dispatch filter).
    kinds: tuple[str, ...] = ()

    def __init__(self):
        self.violations: list[MonitorViolation] = []
        self.active = True
        self.strict = False
        self.events_observed = 0
        #: Cycle a resumed run re-entered the simulation at, or None for
        #: a cold run.  Set by :meth:`MonitorSuite.bind` before
        #: :meth:`bind` so monitors can tolerate intervals that straddle
        #: the restore boundary (their opening events live in the
        #: pre-checkpoint shard's stream).
        self.resume_time: Optional[int] = None

    def bind(self, system: "System") -> None:
        """Learn the invariant's parameters from the built system."""

    def observe(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def finish(self, now: Optional[int] = None) -> None:
        """End-of-run hook (close open intervals, final checks)."""

    def record(self, time: int, message: str, **context) -> None:
        violation = MonitorViolation(
            monitor=self.name, time=time, message=message, context=context
        )
        self.violations.append(violation)
        if self.strict:
            raise MonitorError(str(violation))


class RefreshStretchMonitor(Monitor):
    """Algorithm 1: each bank refreshes in one contiguous, full stretch."""

    name = "refresh_stretch"
    kinds = ("dram.refresh", "refresh.stretch_begin", "refresh.stretch_end")

    def bind(self, system: "System") -> None:
        from repro.dram.refresh.same_bank import SameBankSequential, plan_batches

        self.active = isinstance(system.refresh_scheduler, SameBankSequential)
        if not self.active:
            return
        timing = system.timing
        self._mapping = system.mapping
        self._trefw = timing.trefw
        self._total_banks = timing.total_banks
        self._stretch = timing.refresh_stretch
        # Expected schedule recomputed from timing alone — independent of
        # the scheduler instance under test.
        self._commands_per_bank, trfc_cmd = plan_batches(timing)
        # A stretch's last command can start late when an in-flight
        # demand access holds the bank (precharge + activate window) and
        # then still runs for one command time; allow that much tail.
        self._slack = timing.tRC + timing.tRP + timing.tFAW + trfc_cmd
        self._open: Optional[tuple[int, int]] = None  # (bank, begin time)
        self._commands_in_stretch = 0
        self._prev_bank: Optional[int] = None
        self.stretches_checked = 0
        # On a resumed run one stretch may straddle the restore boundary:
        # its begin (and some commands) happened in the pre-checkpoint
        # shard, so commands/end without an open stretch are tolerated
        # until the first begin proves we are back on the grid.
        self._tolerate_open_stretch = self.resume_time is not None

    def observe(self, event: TraceEvent) -> None:
        self.events_observed += 1
        kind = event.kind
        if kind == "refresh.stretch_begin":
            self._on_begin(event)
        elif kind == "dram.refresh":
            self._on_command(event)
        else:
            self._on_end(event)

    def _on_begin(self, event) -> None:
        bank, time = event.bank, event.time
        self._tolerate_open_stretch = False
        if self._open is not None:
            self.record(
                time,
                f"stretch began on bank {bank} while bank {self._open[0]}'s "
                "stretch is still open",
                bank=bank, open_bank=self._open[0],
            )
        # Begins sit exactly on the tREFW/numTotalBanks grid slot owned
        # by this bank; any drift breaks the OS-visible schedule.
        offset = (bank * self._trefw) // self._total_banks
        if (time - offset) % self._trefw != 0:
            self.record(
                time,
                f"stretch on bank {bank} began off-grid "
                f"(expected offset {offset} mod tREFW={self._trefw})",
                bank=bank, offset=offset,
            )
        if self._prev_bank is not None:
            expected = (self._prev_bank + 1) % self._total_banks
            if bank != expected:
                self.record(
                    time,
                    f"stretch order broken: bank {bank} after bank "
                    f"{self._prev_bank} (expected {expected}); a skipped "
                    "bank misses its once-per-tREFW row coverage",
                    bank=bank, expected=expected,
                )
        self._open = (bank, time)
        self._commands_in_stretch = 0

    def _on_command(self, event) -> None:
        if event.all_bank:
            self.record(
                event.time,
                "all-bank REF issued under the same-bank per-bank schedule",
                channel=event.channel, rank=event.rank,
            )
            return
        flat = self._mapping.flat_bank_index(event.channel, event.rank, event.bank)
        if self._open is None:
            if self._tolerate_open_stretch:
                return  # tail of the stretch straddling the resume boundary
            self.record(
                event.time,
                f"refresh command on bank {flat} outside any stretch",
                bank=flat,
            )
            return
        if flat != self._open[0]:
            self.record(
                event.time,
                f"refresh command on bank {flat} during bank "
                f"{self._open[0]}'s stretch (stretch not contiguous)",
                bank=flat, open_bank=self._open[0],
            )
            return
        self._commands_in_stretch += 1

    def _on_end(self, event) -> None:
        if self._open is None:
            if self._tolerate_open_stretch:
                # Closes the stretch that was open at the checkpoint; its
                # begin is in the previous shard.  Chain the bank-order
                # check from here.
                self._tolerate_open_stretch = False
                self._prev_bank = event.bank
                return
            self.record(
                event.time, f"stretch end on bank {event.bank} without a begin",
                bank=event.bank,
            )
            return
        bank, begin = self._open
        self._open = None
        self._prev_bank = bank
        self.stretches_checked += 1
        if event.bank != bank:
            self.record(
                event.time,
                f"stretch end on bank {event.bank} does not match open "
                f"bank {bank}",
                bank=event.bank, open_bank=bank,
            )
            return
        if self._commands_in_stretch != self._commands_per_bank:
            self.record(
                event.time,
                f"stretch on bank {bank} issued {self._commands_in_stretch} "
                f"commands, expected {self._commands_per_bank} "
                "(rows not covered exactly once per tREFW)",
                bank=bank,
                commands=self._commands_in_stretch,
                expected=self._commands_per_bank,
            )
        length = event.time - begin
        if length > self._stretch + self._slack:
            self.record(
                event.time,
                f"stretch on bank {bank} ran {length} cycles, beyond "
                f"tREFW/numBanks={self._stretch} (+{self._slack} slack)",
                bank=bank, length=length, limit=self._stretch + self._slack,
            )
        # A stretch ending mid-run stays open at finish(); that is not a
        # violation — its end time is simply unknown.


class RefreshOverlapMonitor(Monitor):
    """No column access is issued inside its bank's refresh window.

    The check anchors on the CAS-issue cycle (``DramCommandEvent.issue``):
    the data burst may legally outlast a precharge-then-refresh sequence,
    but the column access itself must start outside every refresh-busy
    window.  Active only for policies whose emitted refresh windows are
    solid busy intervals (all-bank, per-bank round-robin, same-bank) on
    single-subarray banks — pausing/elastic policies can end a refresh
    early, and subarray refresh blocks only part of the bank.
    """

    name = "refresh_overlap"
    kinds = ("dram.refresh", "dram.cmd")

    def bind(self, system: "System") -> None:
        from repro.dram.refresh.all_bank import AllBankRefresh
        from repro.dram.refresh.per_bank_rr import PerBankRoundRobin
        from repro.dram.refresh.same_bank import SameBankSequential

        organization = system.config.organization
        self.active = organization.subarrays_per_bank == 1 and isinstance(
            system.refresh_scheduler,
            (AllBankRefresh, PerBankRoundRobin, SameBankSequential),
        )
        if not self.active:
            return
        self._mapping = system.mapping
        self._banks_per_rank = organization.banks_per_rank
        self._windows: dict[int, deque] = {}
        self.commands_checked = 0

    def _add_window(self, flat: int, start: int, end: int) -> None:
        windows = self._windows.get(flat)
        if windows is None:
            windows = self._windows[flat] = deque(maxlen=_MAX_WINDOWS_PER_BANK)
        windows.append((start, end))

    def observe(self, event: TraceEvent) -> None:
        self.events_observed += 1
        if event.kind == "dram.refresh":
            start, end = event.time, event.time + event.duration
            if event.all_bank:
                base = self._mapping.flat_bank_index(event.channel, event.rank, 0)
                for flat in range(base, base + self._banks_per_rank):
                    self._add_window(flat, start, end)
            else:
                self._add_window(
                    self._mapping.flat_bank_index(
                        event.channel, event.rank, event.bank
                    ),
                    start,
                    end,
                )
            return
        # dram.cmd — per-bank service is serialized, so CAS times arrive
        # non-decreasing per bank and windows fully before this CAS can
        # be pruned for good.
        self.commands_checked += 1
        flat = self._mapping.flat_bank_index(event.channel, event.rank, event.bank)
        windows = self._windows.get(flat)
        if not windows:
            return
        cas = event.issue
        while windows and windows[0][1] <= cas:
            windows.popleft()
        for start, end in windows:
            if start > cas:
                break
            if cas < end:
                self.record(
                    event.time,
                    f"{event.op} CAS at {cas} issued inside refresh window "
                    f"[{start}, {end}) on bank {flat}",
                    bank=flat, cas=cas, window_start=start, window_end=end,
                    task_id=event.task_id,
                )
                break


class SchedulerConflictMonitor(Monitor):
    """Algorithm 3: refresh-aware picks avoid the refreshed bank.

    ``eta_thresh`` fairness fallbacks are expected behavior — the paper
    bounds unfairness with them — so they are tallied in
    ``fallback_picks`` rather than recorded as violations.
    """

    name = "scheduler_conflict"
    kinds = ("sched.pick",)

    def bind(self, system: "System") -> None:
        from repro.os.refresh_aware import RefreshAwareScheduler

        self.active = isinstance(system.scheduler, RefreshAwareScheduler)
        self.picks_checked = 0
        self.fallback_picks = 0

    def observe(self, event: TraceEvent) -> None:
        self.events_observed += 1
        if event.task_id is None:
            return
        self.picks_checked += 1
        if event.fallback:
            self.fallback_picks += 1
            return
        if event.conflict:
            self.record(
                event.time,
                f"core {event.core_id} picked task {event.task_id} "
                f"({event.task_name}) with data in refresh bank "
                f"{event.refresh_bank} without an eta_thresh fallback",
                core_id=event.core_id,
                task_id=event.task_id,
                refresh_bank=event.refresh_bank,
            )


class AllocationPartitionMonitor(Monitor):
    """Algorithm 2: allocations stay inside the task's bank vector.

    Under a *soft* partition, out-of-vector pages are legitimate spills
    (Section 5.4.1) but must be flagged as such on the event; under a
    *hard* partition any out-of-vector page is a violation.
    """

    name = "allocation_partition"
    kinds = ("os.alloc",)

    def bind(self, system: "System") -> None:
        from repro.config.scenarios import PartitionPolicy

        self.active = system.scenario.partition is not PartitionPolicy.NONE
        if not self.active:
            return
        self._vectors = {
            task.task_id: task.possible_banks for task in system.tasks
        }
        self._hard = system.scenario.partition is PartitionPolicy.HARD
        self.allocs_checked = 0
        self.spills = 0

    def observe(self, event: TraceEvent) -> None:
        self.events_observed += 1
        vector = self._vectors.get(event.task_id)
        if vector is None:
            return  # unrestricted task: nothing to contain
        self.allocs_checked += 1
        outside = event.bank not in vector
        if outside != event.spilled:
            self.record(
                event.time,
                f"alloc for task {event.task_id} in bank {event.bank} "
                f"mis-flagged: spilled={event.spilled} but bank is "
                f"{'outside' if outside else 'inside'} the vector",
                task_id=event.task_id, bank=event.bank, spilled=event.spilled,
            )
        if outside:
            self.spills += 1
            if self._hard:
                self.record(
                    event.time,
                    f"hard partition breached: task {event.task_id} "
                    f"allocated frame {event.frame} in bank {event.bank} "
                    "outside its possible_banks_vector",
                    task_id=event.task_id, bank=event.bank, frame=event.frame,
                )


def default_monitors() -> list[Monitor]:
    """One instance of every paper-invariant monitor."""
    return [
        RefreshStretchMonitor(),
        RefreshOverlapMonitor(),
        SchedulerConflictMonitor(),
        AllocationPartitionMonitor(),
    ]


class MonitorSuite:
    """Owns a monitor set, its sink subscription and event dispatch.

    Lifecycle: construct → :meth:`attach` to a telemetry hub → build the
    system against that hub → :meth:`bind` → run → :meth:`finish`;
    :func:`repro.core.simulator.run_spec` does all of it given
    ``monitors=suite``.
    Events emitted between attach and bind (page allocations happen at
    system *construction*) are buffered and replayed at bind time, once
    the monitors know the system they are checking.
    """

    def __init__(
        self, monitors: Optional[Iterable[Monitor]] = None, strict: bool = False
    ):
        self.monitors = (
            list(monitors) if monitors is not None else default_monitors()
        )
        self.strict = strict
        for monitor in self.monitors:
            monitor.strict = strict
        self.sink = CallbackSink(self._observe)
        self._dispatch: dict[str, list[Monitor]] = {}
        self._backlog: list[TraceEvent] = []
        self._bound = False

    def attach(self, telemetry: Telemetry) -> "MonitorSuite":
        """Subscribe this suite's sink to *telemetry*; returns self."""
        telemetry.subscribe(self.sink)
        return self

    def bind(
        self, system: "System", resume_time: Optional[int] = None
    ) -> "MonitorSuite":
        """Bind every monitor to the built system and replay buffered
        construction-time events; returns self.  ``resume_time`` marks a
        run resumed from a checkpoint at that cycle, letting monitors
        tolerate intervals straddling the restore boundary."""
        for monitor in self.monitors:
            monitor.resume_time = resume_time
            monitor.bind(system)
            if monitor.active:
                for kind in monitor.kinds:
                    self._dispatch.setdefault(kind, []).append(monitor)
        self._bound = True
        backlog, self._backlog = self._backlog, []
        for event in backlog:
            self._observe(event)
        return self

    def _observe(self, event: TraceEvent) -> None:
        if not self._bound:
            self._backlog.append(event)
            return
        monitors = self._dispatch.get(event.kind)
        if monitors is not None:
            for monitor in monitors:
                monitor.observe(event)

    def finish(self, now: Optional[int] = None) -> None:
        for monitor in self.monitors:
            if monitor.active:
                monitor.finish(now)

    def violations(self) -> list[MonitorViolation]:
        """All violations, ordered by simulation time (stable within a
        cycle: monitor declaration order)."""
        found = [v for m in self.monitors for v in m.violations]
        found.sort(key=lambda v: v.time)
        return found

    def summary(self) -> dict:
        """Deterministic per-monitor tallies (for CLI/report output)."""
        out = {}
        for monitor in self.monitors:
            entry = {
                "active": monitor.active,
                "violations": len(monitor.violations),
            }
            if monitor.active:
                for key in (
                    "stretches_checked",
                    "commands_checked",
                    "picks_checked",
                    "fallback_picks",
                    "allocs_checked",
                    "spills",
                ):
                    value = getattr(monitor, key, None)
                    if value is not None:
                        entry[key] = value
            out[monitor.name] = entry
        return out

