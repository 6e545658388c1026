"""The fused per-miss generator against the unfused reference.

``StatisticalWorkload.next_access`` is one method that draws page,
column and victim indices with ``random.Random``'s bounded-int loop over
``getrandbits``.  :class:`ReferenceWorkload` keeps the generator as it
was before the fusion: ``next_access`` plus its five helpers, verbatim,
drawing through ``randrange`` and ``choice``.  Both must produce the same
``MemAccess`` stream, leave the task's RNG in the same state and keep
the same snapshotted cursor fields after every draw.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.dram_configs import DramOrganization
from repro.dram.address import AddressMapping
from repro.os.page import PhysicalMemory
from repro.os.partition import PartitioningAllocator, PartitionPolicy
from repro.os.task import Task
from repro.os.vm import VirtualMemory
from repro.workloads.benchmark import (
    AccessPattern,
    BenchmarkSpec,
    MemAccess,
    StatisticalWorkload,
)
from repro.workloads.mixes import WORKLOAD_MIXES, workload_mix

DRAWS = 20_000


class ReferenceWorkload(StatisticalWorkload):
    """The generator before fusion: ``next_access`` and its helpers."""

    def next_access(self, task) -> MemAccess:
        """The next (gap, miss) pair for *task*."""
        rng = task.rng
        spec = self.spec

        has_memory = task.vm is not None or bool(task.frames)
        mean_instr = self._mean_instr
        if mean_instr == float("inf") or not has_memory:
            instructions = self.MAX_GAP_INSTRUCTIONS
        elif self._burst_left > 0:
            # Inside a burst: short fixed gap.
            self._burst_left -= 1
            instructions = self._intra_instr
        else:
            # Start a new burst: long exponential gap, then mlp-1 short ones.
            self._burst_left = spec.mlp - 1
            instructions = min(
                self.MAX_GAP_INSTRUCTIONS,
                max(1, int(rng.expovariate(1.0 / self._inter_mean)) + 1),
            )
        gap_cycles = max(1, int(instructions * spec.base_cpi))

        if not has_memory or mean_instr == float("inf"):
            # Footprint not yet allocated (or zero MPKI): compute-only gap.
            return MemAccess(instructions, gap_cycles, address=None)
        self._fault_penalty = 0
        address = self._next_address(task, rng)
        writeback = None
        if self._recent_pages and rng.random() < spec.write_fraction:
            victim_page = rng.choice(self._recent_pages)
            writeback = self._resident_address(task, victim_page, rng)
        # Page-fault handling time (demand paging) extends the compute gap.
        gap_cycles += self._fault_penalty
        return MemAccess(instructions, gap_cycles, address, writeback)

    # -- address stream -----------------------------------------------------------

    def _page_count(self, task) -> int:
        if task.vm is not None:
            return task.vm.footprint_pages
        return len(task.frames)

    def _next_address(self, task, rng) -> int:
        if (
            self._last_page_idx is not None
            and rng.random() < self.spec.row_locality
        ):
            page_idx = self._last_page_idx
        elif self.spec.pattern is AccessPattern.SEQUENTIAL:
            page_idx = self._seq_cursor
            self._seq_cursor = (self._seq_cursor + 1) % self._page_count(task)
        else:
            page_idx = rng.randrange(self._page_count(task))
        self._last_page_idx = page_idx
        self._remember(page_idx)
        return self._address_in(task, page_idx, rng)

    def _address_in(self, task, page_idx: int, rng) -> int:
        if task.vm is not None:
            frame, penalty = task.vm.translate(page_idx)
            self._fault_penalty += penalty
        else:
            frame = task.frames[page_idx]
        column = rng.randrange(self._columns)
        return self.mapping.frame_offset_to_address(frame, column * self.line_bytes)

    def _resident_address(self, task, page_idx: int, rng):
        """Writeback target: only resident pages get written back."""
        if task.vm is not None:
            frame = task.vm.translate_resident(page_idx)
            if frame is None:
                return None
            column = rng.randrange(self._columns)
            return self.mapping.frame_offset_to_address(
                frame, column * self.line_bytes
            )
        return self._address_in(task, page_idx, rng)

    def _remember(self, page_idx: int) -> None:
        self._recent_pages.append(page_idx)
        if len(self._recent_pages) > 8:
            del self._recent_pages[0]


def _table2_specs() -> list[BenchmarkSpec]:
    specs: dict[str, BenchmarkSpec] = {}
    for mix in WORKLOAD_MIXES:
        for spec in workload_mix(mix):
            specs.setdefault(spec.name, spec)
    return [specs[name] for name in sorted(specs)]


def _mapping() -> AddressMapping:
    return AddressMapping(DramOrganization(), total_rows_per_bank=64)


def _frame_task(workload, frames) -> Task:
    task = Task("t", workload, task_id=0)
    task.rng = random.Random(11)
    for frame in frames:
        task.add_frame(frame, workload.mapping.frame_to_bank_index(frame))
    return task


def _paged_task(workload, footprint, resident_limit) -> Task:
    allocator = PartitioningAllocator(
        PhysicalMemory(workload.mapping), PartitionPolicy.NONE
    )
    task = Task("t", workload, task_id=0)
    task.rng = random.Random(11)
    VirtualMemory(
        task, allocator, footprint_pages=footprint, resident_limit=resident_limit
    )
    return task


def _run(workload, task, draws=DRAWS):
    """Every access with the workload's cursor state right after it."""
    return [
        (workload.next_access(task), workload.snapshot_state())
        for _ in range(draws)
    ], task.rng.getstate()


@pytest.mark.parametrize("pattern", list(AccessPattern), ids=lambda p: p.value)
@pytest.mark.parametrize("spec", _table2_specs(), ids=lambda s: s.name)
def test_fused_stream_matches_reference_on_a_frame_list(spec, pattern):
    spec = dataclasses.replace(spec, pattern=pattern)
    frames = random.Random(3).sample(range(_mapping().total_frames), 300)
    runs = []
    for cls in (StatisticalWorkload, ReferenceWorkload):
        workload = cls(spec, _mapping())
        runs.append(_run(workload, _frame_task(workload, frames)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("resident_limit", [None, 200, 5])
@pytest.mark.parametrize("pattern", list(AccessPattern), ids=lambda p: p.value)
def test_fused_stream_matches_reference_under_demand_paging(
    pattern, resident_limit
):
    """Fault penalties extend the gap; with a tight resident limit some
    writeback victims are evicted and get no writeback."""
    spec = dataclasses.replace(
        next(s for s in _table2_specs() if s.name == "mcf"), pattern=pattern
    )
    runs = []
    for cls in (StatisticalWorkload, ReferenceWorkload):
        workload = cls(spec, _mapping())
        task = _paged_task(workload, footprint=512, resident_limit=resident_limit)
        stream, rng_state = _run(workload, task)
        runs.append((stream, rng_state, dataclasses.asdict(task.vm.stats)))
    assert runs[0] == runs[1]
    stats = runs[0][2]
    assert stats["minor_faults"] > 0
    if resident_limit is not None:
        assert stats["major_faults"] > 0
    penalties = {state["_fault_penalty"] for _, state in runs[0][0]}
    assert len(penalties) > 1


@pytest.mark.parametrize("mpki", [0.0, 20.0])
def test_fused_stream_matches_reference_without_memory(mpki):
    """Zero MPKI, or no footprint yet: compute-only gaps, no draws."""
    spec = dataclasses.replace(_table2_specs()[0], mpki=mpki)
    runs = []
    for cls in (StatisticalWorkload, ReferenceWorkload):
        workload = cls(spec, _mapping())
        runs.append(_run(workload, _frame_task(workload, []), draws=50))
    assert runs[0] == runs[1]
    assert all(access.address is None for access, _ in runs[0][0])


def _bounded_draw(rng: random.Random, n: int) -> int:
    """The loop ``next_access`` inlines for every index it draws."""
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(
        st.integers(1, 65_536), st.sampled_from([1 << k for k in range(17)])
    ),
)
def test_bounded_draw_is_randrange_and_choice(seed, n):
    fused = random.Random(seed)
    by_randrange = random.Random(seed)
    by_choice = random.Random(seed)
    pool = range(n)
    for _ in range(4):
        r = _bounded_draw(fused, n)
        assert r == by_randrange.randrange(n) == by_choice.choice(pool)
    assert fused.getstate() == by_randrange.getstate() == by_choice.getstate()
