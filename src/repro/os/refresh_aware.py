"""DRAM refresh-aware process scheduling — Algorithm 3 of the paper.

``pick_next_task`` walks the runqueue in vruntime order and returns the
first task with **no data allocated in the bank the memory controller will
refresh during the next quantum** (learned from the exposed same-bank
refresh schedule).  After ``eta_thresh`` candidates have been inspected
without success, fairness wins and the leftmost task runs anyway.

The *best-effort* mode implements the Section 5.4.1 generalization for
large-footprint tasks whose data spilled outside their partition: instead
of the boolean "no data in the refresh bank" test it picks the candidate
with the minimal *fraction* of its pages in that bank.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import Engine
from repro.core.state import BOOL, INT, or_default
from repro.cpu.core import Core
from repro.dram.refresh.base import RefreshScheduler
from repro.errors import SchedulerError
from repro.os.cfs import CfsRunqueue
from repro.os.scheduler import OsScheduler
from repro.os.task import Task


class RefreshAwareScheduler(OsScheduler):
    name = "refresh_aware"

    # A checkpoint captured under plain CFS lacks these rows; restoring it
    # keeps the constructed counters.
    STATE = (
        ("clean_picks", or_default(INT)),
        ("fallback_picks", or_default(INT)),
        ("last_pick_fallback", or_default(BOOL)),
    )

    def __init__(
        self,
        engine: Engine,
        cores: list[Core],
        quantum_cycles: int,
        refresh_scheduler: RefreshScheduler,
        eta_thresh: int | None = None,
        best_effort: bool = False,
    ):
        super().__init__(engine, cores, quantum_cycles)
        if not refresh_scheduler.is_predictable():
            raise SchedulerError(
                "refresh-aware scheduling requires a predictable refresh "
                f"schedule; {type(refresh_scheduler).__name__} is not"
            )
        self.refresh_scheduler = refresh_scheduler
        # None = unlimited: scan the entire runqueue before giving up.
        self.eta_thresh = eta_thresh
        self.best_effort = best_effort
        self.clean_picks = 0
        self.fallback_picks = 0
        # True while the most recent pick was the eta_thresh fairness
        # fallback (read by the system's pick observer to tag the event).
        self.last_pick_fallback = False

    def next_refresh_bank(self) -> int:
        """Flat bank index the MC refreshes during the upcoming quantum.

        Sampled mid-quantum so a small misalignment between quantum and
        stretch boundaries still resolves to the dominant stretch.
        """
        probe_time = self.engine.now + self.quantum_cycles // 2
        return self.refresh_scheduler.stretch_bank_at(probe_time)

    def pick_next_task(self, runqueue: CfsRunqueue) -> Optional[Task]:
        self.last_pick_fallback = False
        refresh_bank = self.next_refresh_bank()
        first_entity: Optional[Task] = None
        best_fraction: Optional[tuple[float, Task]] = None
        count = 0
        for task in runqueue.in_vruntime_order():
            if not task.runnable:
                continue
            count += 1
            if first_entity is None:
                first_entity = task
            if self.best_effort:
                fraction = task.fraction_in_bank(refresh_bank)
                if best_fraction is None or fraction < best_fraction[0]:
                    best_fraction = (fraction, task)
                if fraction == 0.0:
                    self.clean_picks += 1
                    return task
            else:
                if not task.has_data_in_bank(refresh_bank):
                    self.clean_picks += 1
                    return task
            if self.eta_thresh is not None and count >= self.eta_thresh:
                break
        # eta_thresh reached (or queue exhausted): fairness fallback.
        if first_entity is None:
            return None
        self.fallback_picks += 1
        self.last_pick_fallback = True
        if self.best_effort and best_fraction is not None:
            return best_fraction[1]
        return first_entity
