"""CFS-style runqueue: tasks ordered by virtual runtime.

Linux keeps runnable tasks in a vruntime-ordered red-black tree; with the
handful of tasks per CPU used here a sorted list gives the same semantics
(leftmost = smallest vruntime) with simpler code.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.state import TASK, Stateful, listof
from repro.errors import SchedulerError
from repro.os.task import Task


class CfsRunqueue(Stateful):
    """Per-CPU runqueue sorted by (vruntime, task_id)."""

    STATE = (("_tasks", listof(TASK)),)

    def __init__(self, cpu_id: int):
        self.cpu_id = cpu_id
        self._tasks: list[Task] = []

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def nr_running(self) -> int:
        return len(self._tasks)

    def enqueue(self, task: Task) -> None:
        if task in self._tasks:
            raise SchedulerError(f"{task} is already enqueued on cpu{self.cpu_id}")
        self._tasks.append(task)

    def dequeue(self, task: Task) -> None:
        try:
            self._tasks.remove(task)
        except ValueError:
            raise SchedulerError(
                f"{task} is not enqueued on cpu{self.cpu_id}"
            ) from None

    def in_vruntime_order(self) -> Iterator[Task]:
        """Runnable tasks, leftmost (smallest vruntime) first."""
        return iter(sorted(self._tasks, key=lambda t: (t.vruntime, t.task_id)))

    def pick_first(self) -> Optional[Task]:
        """The leftmost runnable task (plain CFS pick_next_entity)."""
        best = None
        for task in self._tasks:
            if not task.runnable:
                continue
            if best is None or (task.vruntime, task.task_id) < (
                best.vruntime,
                best.task_id,
            ):
                best = task
        return best

    def min_vruntime(self) -> float:
        """Smallest vruntime on the queue (0 when empty)."""
        if not self._tasks:
            return 0.0
        return min(t.vruntime for t in self._tasks)

    def tasks(self) -> list[Task]:
        return list(self._tasks)

    def __repr__(self) -> str:
        return f"CfsRunqueue(cpu{self.cpu_id}, nr={len(self._tasks)})"
