"""OS process schedulers driving the cores at quantum granularity.

:class:`CfsScheduler` is the baseline: per-CPU vruntime-ordered runqueues
with a fixed time slice — with equal-weight always-runnable tasks this
degenerates to the round-robin schedule the paper uses as its baseline
(Table 1: "CFS (round-robin)").

Quanta on all cores are synchronized and, when the quantum is derived from
the refresh configuration, aligned with the same-bank refresh stretches —
the alignment the co-design exploits.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.engine import Engine
from repro.core.state import BOOL, COMPONENTS, INT, Stateful
from repro.cpu.core import Core
from repro.errors import SchedulerError
from repro.os.cfs import CfsRunqueue
from repro.os.task import Task


class OsScheduler(Stateful):
    """Base scheduler: owns runqueues and the quantum tick.

    ``on_pick`` is runtime wiring and is not checkpointed; the queued
    ``_tick`` event is captured by the engine snapshot.
    """

    name = "base"

    STATE = (
        ("context_switches", INT),
        ("runqueues", COMPONENTS),
        ("_started", BOOL),
    )

    def __init__(self, engine: Engine, cores: list[Core], quantum_cycles: int):
        if quantum_cycles <= 0:
            raise SchedulerError("quantum must be positive")
        self.engine = engine
        self.cores = cores
        self.quantum_cycles = quantum_cycles
        self.runqueues = [CfsRunqueue(core.core_id) for core in cores]
        self.context_switches = 0
        #: Called as ``on_pick(time, core_id, task_or_None)`` after every
        #: quantum dispatch; ``System`` turns it into pick events on its
        #: telemetry hub, the public way to watch picks.
        self.on_pick: Optional[Callable[[int, int, Optional[Task]], None]] = None
        self._started = False

    # -- task admission --------------------------------------------------------------

    def add_task(self, task: Task, cpu: Optional[int] = None) -> None:
        """Admit a task; without an explicit CPU, balance round-robin (the
        CFS load balancer keeps per-CPU queue lengths equal)."""
        if cpu is None:
            cpu = min(
                range(len(self.runqueues)), key=lambda c: self.runqueues[c].nr_running
            )
        self.runqueues[cpu].enqueue(task)

    def tasks(self) -> list[Task]:
        found = [t for rq in self.runqueues for t in rq.tasks()]
        found.extend(
            core.current_task for core in self.cores if core.current_task is not None
        )
        return found

    # -- quantum ticks ------------------------------------------------------------------

    def start(self) -> None:
        """Dispatch initial tasks and begin ticking."""
        if self._started:
            raise SchedulerError("scheduler already started")
        self._started = True
        self._tick()

    def _tick(self) -> None:
        quantum_end = self.engine.now + self.quantum_cycles
        for core, runqueue in zip(self.cores, self.runqueues):
            previous = core.preempt()
            if previous is not None:
                previous.vruntime += self.quantum_cycles / previous.weight
                runqueue.enqueue(previous)
            chosen = self.pick_next_task(runqueue)
            if chosen is not None:
                runqueue.dequeue(chosen)
                self.context_switches += 1
            core.run_task(chosen, quantum_end)
            if self.on_pick is not None:
                self.on_pick(self.engine.now, core.core_id, chosen)
        self.engine.schedule(self.quantum_cycles, self._tick)

    # -- policy ---------------------------------------------------------------------------

    def pick_next_task(self, runqueue: CfsRunqueue) -> Optional[Task]:
        raise NotImplementedError


class CfsScheduler(OsScheduler):
    """Baseline CFS: always run the leftmost (min-vruntime) task."""

    name = "cfs"

    def pick_next_task(self, runqueue: CfsRunqueue) -> Optional[Task]:
        return runqueue.pick_first()
