"""Footprint allocation against a page-by-page reference.

The allocator's per-page path takes shortcuts: the buddy pops an order-0
block directly, the bank index is decoded from the frame bits without a
coordinate, the per-page calls are bound once and the bank-oblivious
path skips an all-empty cache scan.  :class:`ReferenceAllocator` keeps
Algorithm 2 as it was before those shortcuts — every page through
``BuddyAllocator.alloc(0)``, the bank from a decoded coordinate, every
cache scanned.  Both must hand out the same frames in the same order and
leave the same buddy, bank-cache and ownership state.
"""

from typing import Optional

import pytest

from repro.config.dram_configs import DramOrganization
from repro.dram.address import LAYOUTS, AddressMapping
from repro.errors import AddressMapError
from repro.os.buddy import BuddyAllocator
from repro.os.page import PhysicalMemory
from repro.os.partition import PartitioningAllocator, PartitionPolicy
from repro.os.task import Task
from repro.telemetry.events import PageAllocEvent


class ReferenceBuddy(BuddyAllocator):
    def alloc_page(self) -> int:
        return self.alloc(0)


class ReferenceMemory(PhysicalMemory):
    def bank_of_frame(self, frame: int) -> int:
        coord = self.mapping.frame_to_coordinate(frame)
        return self.mapping.flat_bank_index(coord.channel, coord.rank, coord.bank)


class ReferenceAllocator(PartitioningAllocator):
    """Algorithm 2 page by page, with no per-page shortcut."""

    def __init__(self, memory, policy):
        super().__init__(memory, policy)
        self.buddy = ReferenceBuddy(memory.total_frames)

    def alloc_page(self, task: Task) -> int:
        """Allocate one page frame for *task*, honoring its bank vector."""
        if self.policy is PartitionPolicy.NONE or task.possible_banks is None:
            frame = self._alloc_any(task)
        else:
            frame = self._alloc_partitioned(task)
        bank = self.memory.bank_of_frame(frame)
        self.memory.claim(frame, task.task_id)
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

    def _alloc_any(self, task: Task) -> int:
        """Bank-oblivious path: cached pages first, then the buddy."""
        for bank, cache in enumerate(self._bank_cache):
            if cache:
                self.cache_hits += 1
                return cache.pop()
        return self.buddy.alloc_page()

    def _page_for_bank(self, wanted_bank: int) -> Optional[int]:
        cache = self._bank_cache[wanted_bank]
        if cache:
            self.cache_hits += 1
            return cache.pop()
        while self.buddy.has_free():
            frame = self.buddy.alloc_page()
            bank = self.memory.bank_of_frame(frame)
            if bank == wanted_bank:
                return frame
            self._bank_cache[bank].append(frame)
            self.cache_fills += 1
        return None

    def _page_any_bank(self) -> Optional[int]:
        for cache in self._bank_cache:
            if cache:
                return cache.pop()
        if self.buddy.has_free():
            return self.buddy.alloc_page()
        return None


#: policy -> steps; ``("alloc", task, pages)`` allocates a footprint,
#: ``("free", task)`` releases a task, ``("free_page", task, n)`` releases
#: every n-th frame of a task one page at a time.
PLANS = {
    "none": (
        PartitionPolicy.NONE,
        [
            ("alloc", 0, 100),
            ("alloc", 1, 250),
            ("free_page", 1, 3),
            ("alloc", 2, 150),
            ("free", 0),
            ("alloc", 3, 400),
        ],
    ),
    "soft_spill": (
        PartitionPolicy.SOFT,
        [
            ("alloc", 0, 200),  # two banks hold 128 frames: spills
            ("alloc", 1, 100),
            ("alloc", 4, 300),  # unrestricted: drains the bank caches
            ("free_page", 0, 2),
            ("alloc", 2, 150),
        ],
    ),
    "hard_until_oom": (
        PartitionPolicy.HARD,
        [
            ("alloc", 0, 200),  # stops at the 128-frame partition
            ("alloc", 1, 10),  # shares task 0's full partition
            ("alloc", 2, 300),
            ("alloc", 3, 2000),
        ],
    ),
}

BANKS = {0: {0, 1}, 1: {0, 1}, 2: {4, 5, 6, 7}, 3: set(range(8, 16)), 4: None}


def _replay(cls, policy, steps):
    mapping = AddressMapping(DramOrganization(), total_rows_per_bank=64)
    memory = (PhysicalMemory if cls is PartitioningAllocator else ReferenceMemory)(
        mapping
    )
    allocator = cls(memory, policy)
    tasks = {
        i: Task(f"t{i}", None, possible_banks=banks, task_id=i)
        for i, banks in BANKS.items()
    }
    allocated = []
    for step in steps:
        task = tasks[step[1]]
        if step[0] == "alloc":
            allocated.append(allocator.alloc_footprint(task, step[2]))
        elif step[0] == "free":
            allocator.free_task(task)
        else:
            for frame in list(task.frames[:: step[2]]):
                allocator.free_page(task, frame)
    return {
        "allocated": allocated,
        "frames": {i: list(t.frames) for i, t in tasks.items()},
        "pages_per_bank": {i: dict(t.pages_per_bank) for i, t in tasks.items()},
        "last_alloced_bank": {i: t.last_alloced_bank for i, t in tasks.items()},
        "allocator": allocator.snapshot_state(),
        "memory": memory.snapshot_state(),
    }


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_alloc_footprint_matches_per_page_reference(plan):
    policy, steps = PLANS[plan]
    fast = _replay(PartitioningAllocator, policy, steps)
    reference = _replay(ReferenceAllocator, policy, steps)
    assert fast == reference
    state = fast["allocator"]
    if plan == "soft_spill":
        assert state["spills"] > 0 and state["cache_hits"] > 0
    if plan == "hard_until_oom":
        assert fast["allocated"][:2] == [128, 0]


@pytest.mark.parametrize("rows", [64, 384], ids=["pow2_rows", "24gb_rows"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_bank_index_matches_decoded_coordinate(layout, rows):
    """The allocator's bank query against a full coordinate decode, on
    every layout, two channels and a non-power-of-two row count."""
    mapping = AddressMapping(
        DramOrganization(channels=2), total_rows_per_bank=rows, layout=layout
    )
    for frame in range(mapping.total_frames):
        coord = mapping.frame_to_coordinate(frame)
        assert mapping.frame_to_bank_index(frame) == mapping.flat_bank_index(
            coord.channel, coord.rank, coord.bank
        )
    for frame in (-1, mapping.total_frames):
        with pytest.raises(AddressMapError):
            mapping.frame_to_bank_index(frame)
