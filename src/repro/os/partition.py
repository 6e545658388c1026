"""Bank-aware memory-partitioning allocator — Algorithm 2 of the paper.

The allocator sits on top of the buddy allocator and maintains a *cache of
per-bank free lists*: pages pulled from the OS free list whose bank does not
match the wanted one are parked in their bank's cache instead of being
returned, so later requests for that bank are served without re-traversing
the OS free list.

Per task it honors ``possible_banks_vector`` and rotates
``lastAllocedBank`` round-robin over the allowed banks so consecutive
allocations stripe across banks (preserving BLP inside the partition).

Modes:

* ``PartitionPolicy.NONE`` — bank-oblivious baseline (plain buddy order).
* ``PartitionPolicy.SOFT`` — tasks share their allowed-bank groups; when the
  allowed banks are exhausted, allocation *spills* to any bank
  (Section 5.4.1's generalization for large-footprint tasks).
* ``PartitionPolicy.HARD`` — exclusive bank ownership; no spill: allocation
  fails with :class:`OutOfMemoryError` when the partition is full, modelling
  the page-fault catastrophe the paper warns about.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.state import COMPONENT, INT, INTS, Stateful, listof
from repro.errors import OutOfMemoryError
from repro.os.buddy import BuddyAllocator
from repro.os.page import PhysicalMemory
from repro.os.task import Task
from repro.telemetry.events import PageAllocEvent
from repro.telemetry.hub import Telemetry


class PartitionPolicy(enum.Enum):
    NONE = "none"
    SOFT = "soft"
    HARD = "hard"


class PartitioningAllocator(Stateful):
    """Algorithm 2: get_page_from_freelist with per-bank free-list caches.

    Its checkpoint leaves out the shared :class:`PhysicalMemory`, which the
    system layer captures separately.
    """

    STATE = (
        ("buddy", COMPONENT),
        ("_bank_cache", listof(INTS, sized=True)),
        ("cache_hits", INT),
        ("cache_fills", INT),
        ("spills", INT),
    )

    def __init__(
        self,
        memory: PhysicalMemory,
        policy: PartitionPolicy,
        telemetry: Optional[Telemetry] = None,
    ):
        self.memory = memory
        self.policy = policy
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.buddy = BuddyAllocator(memory.total_frames)
        total_banks = memory.total_banks
        self._bank_cache: list[list[int]] = [[] for _ in range(total_banks)]
        self.cache_hits = 0
        self.cache_fills = 0
        self.spills = 0
        # Per-page calls, bound once (a footprint is thousands of pages).
        # Restores mutate the buddy and the memory in place, so these
        # bindings stay valid.
        self._bank_of_frame = memory.mapping.frame_to_bank_index
        self._total_banks = total_banks
        self._claim = memory.claim
        self._buddy_alloc_page = self.buddy.alloc_page

    # -- public API -----------------------------------------------------------------

    def alloc_page(self, task: Task) -> int:
        """Allocate one page frame for *task*, honoring its bank vector."""
        if self.policy is PartitionPolicy.NONE or task.possible_banks is None:
            frame = self._alloc_any(task)
        else:
            frame = self._alloc_partitioned(task)
        bank = self._bank_of_frame(frame)
        self._claim(frame, task.task_id)
        task.add_frame(frame, bank)
        if self.telemetry.enabled:
            self.telemetry.emit(
                PageAllocEvent(
                    time=self.telemetry.now(),
                    task_id=task.task_id,
                    frame=frame,
                    bank=bank,
                    spilled=(
                        task.possible_banks is not None
                        and self.policy is not PartitionPolicy.NONE
                        and bank not in task.possible_banks
                    ),
                )
            )
        return frame

    def alloc_footprint(self, task: Task, num_pages: int) -> int:
        """Allocate *num_pages* pages; returns how many succeeded.

        Under SOFT partitioning all pages land somewhere (spilling);
        under HARD partitioning allocation stops at the partition boundary.
        """
        allocated = 0
        for _ in range(num_pages):
            try:
                self.alloc_page(task)
            except OutOfMemoryError:
                break
            allocated += 1
        return allocated

    def free_page(self, task: Task, frame: int) -> None:
        """Release one of *task*'s frames back to the buddy (used by the
        demand-paging evictor)."""
        self.memory.release(frame)
        self.buddy.free(frame)
        task.frames.remove(frame)
        bank = self.memory.bank_of_frame(frame)
        remaining = task.pages_per_bank.get(bank, 0) - 1
        if remaining > 0:
            task.pages_per_bank[bank] = remaining
        else:
            task.pages_per_bank.pop(bank, None)

    def free_task(self, task: Task) -> None:
        """Release every frame owned by *task* back to the buddy."""
        for frame in task.frames:
            self.memory.release(frame)
            self.buddy.free(frame)
        task.frames.clear()
        task.pages_per_bank.clear()

    def free_frames(self) -> int:
        cached = sum(len(c) for c in self._bank_cache)
        return self.buddy.free_frames() + cached

    def cached_frames_in_bank(self, flat_bank: int) -> int:
        return len(self._bank_cache[flat_bank])

    # -- Algorithm 2 core -----------------------------------------------------------

    def _alloc_any(self, task: Task) -> int:
        """Bank-oblivious path: cached pages first, then the buddy."""
        caches = self._bank_cache
        if any(caches):
            for cache in caches:
                if cache:
                    self.cache_hits += 1
                    return cache.pop()
        return self._buddy_alloc_page()

    def _alloc_partitioned(self, task: Task) -> int:
        allowed = task.possible_banks
        total_banks = self._total_banks
        # Round-robin over the allowed banks starting after lastAllocedBank.
        alloc_bank = task.last_alloced_bank
        for _ in range(total_banks):
            alloc_bank = (alloc_bank + 1) % total_banks
            if alloc_bank not in allowed:
                continue
            frame = self._page_for_bank(alloc_bank)
            if frame is not None:
                task.last_alloced_bank = alloc_bank
                return frame
        # Allowed banks are exhausted.
        if self.policy is PartitionPolicy.HARD:
            raise OutOfMemoryError(
                f"hard partition of task {task.task_id} is full"
            )
        # SOFT: spill anywhere (Section 5.4.1).
        frame = self._page_any_bank()
        if frame is None:
            raise OutOfMemoryError("physical memory exhausted")
        self.spills += 1
        return frame

    def _page_for_bank(self, wanted_bank: int) -> Optional[int]:
        """A free page in *wanted_bank*: the per-bank cache first, then pull
        pages from the OS free list, caching mismatches (lines 15-33)."""
        caches = self._bank_cache
        cache = caches[wanted_bank]
        if cache:
            self.cache_hits += 1
            return cache.pop()
        has_free = self.buddy.has_free
        alloc_page = self._buddy_alloc_page
        bank_of_frame = self._bank_of_frame
        while has_free():
            frame = alloc_page()
            bank = bank_of_frame(frame)
            if bank == wanted_bank:
                return frame
            caches[bank].append(frame)
            self.cache_fills += 1
        return None

    def _page_any_bank(self) -> Optional[int]:
        for cache in self._bank_cache:
            if cache:
                return cache.pop()
        if self.buddy.has_free():
            return self._buddy_alloc_page()
        return None

    def __repr__(self) -> str:
        return (
            f"PartitioningAllocator({self.policy.value}, "
            f"free={self.free_frames()}, spills={self.spills})"
        )
