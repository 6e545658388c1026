"""Demand-paged virtual memory.

Implements the page-fault behaviour Section 5.2.1 warns about: under
hard partitioning, a task whose footprint exceeds its bank partition
page-faults *even though other banks have free memory* — "catastrophic to
performance".  Soft partitioning spills instead and avoids the faults.

Each task gets a :class:`VirtualMemory`: a VPN -> frame page table filled
on first touch through the (partition-aware) allocator.  When the
allocator cannot supply a frame, the LRU resident page of the same task is
evicted (swapped out) and the access pays a major-fault penalty; minor
faults (fresh allocation) pay a small one.  Penalties are charged as extra
compute cycles on the faulting access, modelling kernel fault-handling and
swap latency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.state import INT, Stateful, mapping, record
from repro.errors import AllocationError, OutOfMemoryError
from repro.os.partition import PartitioningAllocator
from repro.os.task import Task
from repro.telemetry.stats import StatsBase


@dataclass
class VmStats(StatsBase):
    minor_faults: int = 0
    major_faults: int = 0
    evictions: int = 0
    hits: int = 0

    @property
    def faults(self) -> int:
        return self.minor_faults + self.major_faults


class VirtualMemory(Stateful):
    """Per-task demand-paged address space of ``footprint_pages`` pages.

    Its checkpoint is the page table in LRU order (front = eviction
    candidate) and the stats.
    """

    STATE = (
        ("_table", mapping(INT, INT, ordered=True)),
        ("stats", record(VmStats)),
    )

    def __init__(
        self,
        task: Task,
        allocator: PartitioningAllocator,
        footprint_pages: int,
        minor_fault_cycles: int = 2_000,
        major_fault_cycles: int = 100_000,
        resident_limit: Optional[int] = None,
    ):
        if footprint_pages < 1:
            raise AllocationError("footprint must be at least one page")
        self.task = task
        self.allocator = allocator
        self.footprint_pages = footprint_pages
        self.minor_fault_cycles = minor_fault_cycles
        self.major_fault_cycles = major_fault_cycles
        #: optional cap on resident pages (an RSS limit); None = bounded
        #: only by what the allocator can supply.
        self.resident_limit = resident_limit
        # VPN -> frame; ordered by recency (front = LRU victim candidate).
        self._table: OrderedDict[int, int] = OrderedDict()
        self.stats = VmStats()
        task.vm = self

    @property
    def resident_pages(self) -> int:
        return len(self._table)

    def translate(self, vpn: int) -> tuple[int, int]:
        """Resolve *vpn* to a physical frame, faulting it in if needed.

        Returns ``(frame, penalty_cycles)``.
        """
        vpn %= self.footprint_pages
        frame = self._table.get(vpn)
        if frame is not None:
            self._table.move_to_end(vpn)
            self.stats.hits += 1
            return frame, 0
        return self._fault(vpn)

    def translate_resident(self, vpn: int) -> Optional[int]:
        """Resolve without faulting: the frame if resident, else ``None``."""
        vpn %= self.footprint_pages
        frame = self._table.get(vpn)
        if frame is not None:
            self._table.move_to_end(vpn)
        return frame

    # -- fault path -----------------------------------------------------------------

    def _fault(self, vpn: int) -> tuple[int, int]:
        if (
            self.resident_limit is not None
            and len(self._table) >= self.resident_limit
        ):
            return self._evict_and_retry(vpn)
        try:
            frame = self.allocator.alloc_page(self.task)
        except OutOfMemoryError:
            return self._evict_and_retry(vpn)
        self._table[vpn] = frame
        self.stats.minor_faults += 1
        return frame, self.minor_fault_cycles

    def _evict_and_retry(self, vpn: int) -> tuple[int, int]:
        if not self._table:
            raise OutOfMemoryError(
                f"task {self.task.task_id}: no frame available and nothing "
                "resident to evict"
            )
        victim_vpn, victim_frame = self._table.popitem(last=False)  # LRU
        self.allocator.free_page(self.task, victim_frame)
        self.stats.evictions += 1
        frame = self.allocator.alloc_page(self.task)
        self._table[vpn] = frame
        self.stats.major_faults += 1
        return frame, self.major_fault_cycles

    def prefault_all(self) -> int:
        """Touch every page without charging penalties (models the paper's
        fast-forward past initialization: the working set is resident when
        the region of interest begins).  Stops quietly when the allocator
        (or the resident limit) cannot hold more; returns pages mapped.

        Counters are reset afterwards so measured faults reflect only
        runtime (capacity) behaviour.
        """
        mapped = 0
        for vpn in range(self.footprint_pages):
            if vpn in self._table:
                mapped += 1
                continue
            if (
                self.resident_limit is not None
                and len(self._table) >= self.resident_limit
            ):
                break
            try:
                frame = self.allocator.alloc_page(self.task)
            except OutOfMemoryError:
                break
            self._table[vpn] = frame
            mapped += 1
        self.stats = VmStats()
        return mapped

    def release_all(self) -> None:
        """Drop every resident page (process exit)."""
        for frame in list(self._table.values()):
            self.allocator.free_page(self.task, frame)
        self._table.clear()

    def __repr__(self) -> str:
        return (
            f"VirtualMemory(task={self.task.task_id}, "
            f"{self.resident_pages}/{self.footprint_pages} resident, "
            f"{self.stats.faults} faults)"
        )
