"""CFS load balancer (Section 2.4: "CFS runs the load-balancer in the
background to maintain an equal number of tasks in the per-CPU queues").

Periodically migrates tasks from the busiest to the idlest runqueue when
their lengths differ by two or more.  The *bank-aware* mode matters for
the co-design: a naive migration can strip a core of the only task that
excludes some bank, so the refresh-aware scheduler would be forced into
fairness fallbacks for that bank's stretches.  Bank-aware selection
prefers migrating a task whose exclusion window is duplicated on the
source core and missing on the destination core, preserving (or even
repairing) per-core stretch coverage.
"""

from __future__ import annotations

from typing import Optional

from repro.core.state import BOOL, INT, Stateful
from repro.os.scheduler import OsScheduler
from repro.os.task import Task
from repro.telemetry.events import TaskMigrationEvent
from repro.telemetry.hub import Telemetry


class LoadBalancer(Stateful):
    """Periodic runqueue balancing for an :class:`OsScheduler`."""

    STATE = (("migrations", INT), ("_started", BOOL))

    def __init__(
        self,
        scheduler: OsScheduler,
        interval_quanta: int = 4,
        bank_aware: bool = False,
        total_banks: int = 16,
        telemetry: Optional[Telemetry] = None,
    ):
        if interval_quanta < 1:
            raise ValueError("interval_quanta must be >= 1")
        self.scheduler = scheduler
        self.interval_quanta = interval_quanta
        self.bank_aware = bank_aware
        self.total_banks = total_banks
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.migrations = 0
        self._started = False

    # -- driving ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._schedule_next()

    def _schedule_next(self) -> None:
        delay = self.scheduler.quantum_cycles * self.interval_quanta
        self.scheduler.engine.schedule(delay, self._tick)

    def _tick(self) -> None:
        self.rebalance()
        self._schedule_next()

    # -- balancing ------------------------------------------------------------------

    def rebalance(self) -> int:
        """One balancing pass; returns the number of migrations made."""
        made = 0
        while True:
            queues = self.scheduler.runqueues
            busiest = max(queues, key=lambda q: q.nr_running)
            idlest = min(queues, key=lambda q: q.nr_running)
            if busiest.nr_running - idlest.nr_running < 2:
                return made
            task = self._pick_migration(busiest, idlest)
            if task is None:
                return made
            busiest.dequeue(task)
            idlest.enqueue(task)
            self.migrations += 1
            made += 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    TaskMigrationEvent(
                        time=self.scheduler.engine.now,
                        task_id=task.task_id,
                        src_cpu=busiest.cpu_id,
                        dst_cpu=idlest.cpu_id,
                    )
                )

    def _pick_migration(self, source, destination) -> Optional[Task]:
        candidates = source.tasks()
        if not candidates:
            return None
        if not self.bank_aware:
            # Migrate the task that has waited longest (max vruntime): the
            # cheapest choice cache-wise in real kernels.
            return max(candidates, key=lambda t: (t.vruntime, t.task_id))

        source_exclusions = self._exclusion_counts(candidates)
        destination_excluded = self._excluded_union(destination.tasks())

        def score(task: Task) -> tuple:
            excluded = self._excluded(task)
            # Redundant on source: every bank it excludes is excluded by
            # another source task too.
            redundant = all(source_exclusions[b] > 1 for b in excluded)
            # Useful on destination: brings exclusion of uncovered banks.
            useful = len(excluded - destination_excluded)
            return (redundant, useful, task.vruntime, task.task_id)

        return max(candidates, key=score)

    # -- helpers ----------------------------------------------------------------------

    def _excluded(self, task: Task) -> set[int]:
        if task.possible_banks is None:
            return set()
        return set(range(self.total_banks)) - set(task.possible_banks)

    def _exclusion_counts(self, tasks) -> dict[int, int]:
        counts = {b: 0 for b in range(self.total_banks)}
        for task in tasks:
            for bank in self._excluded(task):
                counts[bank] += 1
        return counts

    def _excluded_union(self, tasks) -> set[int]:
        union: set[int] = set()
        for task in tasks:
            union |= self._excluded(task)
        return union
