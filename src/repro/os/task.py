"""Task (task_struct analogue) and per-task statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.state import (
    BOOL,
    COMPONENT,
    FLOAT,
    INT,
    INTS,
    OPT_INT,
    RNG,
    Stateful,
    mapping,
    record,
)
from repro.errors import ConfigError
from repro.telemetry.stats import StatsBase


@dataclass
class TaskStats(StatsBase):
    """Counters used for IPC, memory latency, and fairness reporting."""

    instructions: int = 0
    scheduled_cycles: int = 0
    quanta: int = 0
    reads_issued: int = 0
    writes_issued: int = 0
    reads_completed: int = 0
    read_latency_sum: int = 0
    refresh_stall_sum: int = 0
    mlp_stalls: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per scheduled CPU cycle."""
        if self.scheduled_cycles == 0:
            return 0.0
        return self.instructions / self.scheduled_cycles

    @property
    def avg_read_latency(self) -> float:
        if self.reads_completed == 0:
            return 0.0
        return self.read_latency_sum / self.reads_completed


class Task(Stateful):
    """A schedulable task with bank-partitioned memory.

    ``possible_banks`` is the flat-bank-index form of Algorithm 2/3's
    ``possible_banks_vector``: the banks this task is *allowed* to allocate
    in (``None`` = unrestricted, the bank-oblivious baseline).
    ``pages_per_bank`` counts where its pages actually landed — including
    spill pages outside the vector — which is what the refresh-aware
    scheduler's data-presence test and the best-effort generalization
    (Section 5.4.1) consult.

    A checkpoint carries the task's RNG, workload cursor and (when demand
    paged) page table; ``possible_banks`` comes from the spec.
    """

    STATE = (
        ("vruntime", FLOAT),
        ("last_alloced_bank", INT),
        ("frames", INTS),
        ("pages_per_bank", mapping(INT, INT)),
        ("stats", record(TaskStats)),
        ("runnable", BOOL),
        ("_scheduled_at", OPT_INT),
        ("current_core", OPT_INT),
        ("rng", RNG),
        ("workload", COMPONENT),
        ("vm", COMPONENT),
    )

    def __init__(
        self,
        name: str,
        workload,
        possible_banks: Optional[frozenset[int]] = None,
        weight: float = 1.0,
        task_id: Optional[int] = None,
    ):
        # An explicit, caller-assigned task_id keeps a simulation a pure
        # function of its RunSpec: a process-global counter would depend
        # on allocation history (RPR002).  System passes the task's index.
        # Ids must be >= 0 — PhysicalMemory uses -1 as the free-frame
        # sentinel.
        if task_id is None or task_id < 0:
            raise ConfigError(
                f"Task {name!r} needs an explicit task_id >= 0 "
                "(deterministic replay forbids a process-global counter)"
            )
        self.task_id = task_id
        self.name = name
        self.workload = workload
        self.possible_banks = (
            frozenset(possible_banks) if possible_banks is not None else None
        )
        self.weight = weight
        self.vruntime = 0.0
        self.last_alloced_bank = -1  # Algorithm 2 round-robin pointer
        self.frames: list[int] = []
        self.pages_per_bank: dict[int, int] = {}
        self.stats = TaskStats()
        self.runnable = True
        self._scheduled_at: Optional[int] = None
        self.current_core: Optional[int] = None
        # Per-task deterministic RNG, seeded by the system builder.
        self.rng = None
        # Demand-paged address space (set by repro.os.vm.VirtualMemory);
        # None = the footprint is pre-allocated up front.
        self.vm = None

    # -- memory accounting ------------------------------------------------------

    def add_frame(self, frame: int, bank: int) -> None:
        self.frames.append(frame)
        self.pages_per_bank[bank] = self.pages_per_bank.get(bank, 0) + 1

    def has_data_in_bank(self, flat_bank: int) -> bool:
        return self.pages_per_bank.get(flat_bank, 0) > 0

    def fraction_in_bank(self, flat_bank: int) -> float:
        """Fraction of this task's pages residing in *flat_bank*."""
        total = len(self.frames)
        if total == 0:
            return 0.0
        return self.pages_per_bank.get(flat_bank, 0) / total

    # -- scheduling hooks (called by Core) ----------------------------------------

    def on_scheduled(self, now: int, core_id: int) -> None:
        self._scheduled_at = now
        self.current_core = core_id
        self.stats.quanta += 1

    def on_descheduled(self, now: int) -> None:
        if self._scheduled_at is not None:
            self.stats.scheduled_cycles += now - self._scheduled_at
        self._scheduled_at = None
        self.current_core = None

    def __repr__(self) -> str:
        return f"Task(#{self.task_id} {self.name!r}, vruntime={self.vruntime:.0f})"
