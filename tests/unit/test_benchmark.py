"""Unit tests for benchmark specs and the statistical workload model."""

import random

import pytest

from repro.config.dram_configs import DramOrganization
from repro.dram.address import AddressMapping
from repro.errors import ConfigError
from repro.os.task import Task
from repro.workloads.benchmark import AccessPattern, BenchmarkSpec, MpkiClass
from repro.workloads.generator import StatisticalWorkload


@pytest.fixture
def mapping():
    return AddressMapping(DramOrganization(), total_rows_per_bank=64)


def make_task(mapping, spec, num_pages=32, seed=5):
    workload = StatisticalWorkload(spec, mapping)
    task = Task(spec.name, workload, task_id=0)
    task.rng = random.Random(seed)
    for frame in range(num_pages):
        task.add_frame(frame, mapping.frame_to_bank_index(frame))
    return task


class TestMpkiClass:
    def test_table2_boundaries(self):
        assert MpkiClass.of(35.0) is MpkiClass.HIGH
        assert MpkiClass.of(10.1) is MpkiClass.HIGH
        assert MpkiClass.of(10.0) is MpkiClass.MEDIUM
        assert MpkiClass.of(1.0) is MpkiClass.MEDIUM
        assert MpkiClass.of(0.5) is MpkiClass.LOW


class TestBenchmarkSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BenchmarkSpec("x", mpki=-1, footprint_bytes=1).validate()
        with pytest.raises(ConfigError):
            BenchmarkSpec("x", mpki=1, footprint_bytes=0).validate()
        with pytest.raises(ConfigError):
            BenchmarkSpec("x", mpki=1, footprint_bytes=1, mlp=0).validate()
        with pytest.raises(ConfigError):
            BenchmarkSpec("x", mpki=1, footprint_bytes=1, row_locality=1.5).validate()

    def test_instructions_per_miss(self):
        spec = BenchmarkSpec("x", mpki=10.0, footprint_bytes=4096)
        assert spec.instructions_per_miss() == 100.0
        zero = BenchmarkSpec("z", mpki=0.0, footprint_bytes=4096)
        assert zero.instructions_per_miss() == float("inf")


class TestStatisticalWorkload:
    def test_mean_gap_matches_mpki(self, mapping):
        spec = BenchmarkSpec("x", mpki=20.0, footprint_bytes=4096, mlp=4)
        task = make_task(mapping, spec)
        total_instr = 0
        n = 4000
        for _ in range(n):
            total_instr += task.workload.next_access(task).instructions
        mean = total_instr / n
        # Burst structure preserves 1000/MPKI = 50 instructions per miss.
        assert mean == pytest.approx(50, rel=0.15)

    def test_addresses_within_task_frames(self, mapping):
        spec = BenchmarkSpec("x", mpki=10.0, footprint_bytes=4096)
        task = make_task(mapping, spec, num_pages=8)
        frames = set(task.frames)
        for _ in range(200):
            access = task.workload.next_access(task)
            assert access.address is not None
            frame = access.address // mapping.page_bytes
            assert frame in frames

    def test_zero_mpki_yields_compute_gaps(self, mapping):
        spec = BenchmarkSpec("x", mpki=0.0, footprint_bytes=4096)
        task = make_task(mapping, spec)
        access = task.workload.next_access(task)
        assert access.address is None
        assert access.instructions == StatisticalWorkload.MAX_GAP_INSTRUCTIONS

    def test_no_frames_yields_compute_gaps(self, mapping):
        spec = BenchmarkSpec("x", mpki=10.0, footprint_bytes=4096)
        workload = StatisticalWorkload(spec, mapping)
        task = Task("x", workload, task_id=0)
        task.rng = random.Random(1)
        assert workload.next_access(task).address is None

    def test_row_locality_produces_page_reuse(self, mapping):
        high = BenchmarkSpec("h", mpki=10, footprint_bytes=4096, row_locality=0.95)
        low = BenchmarkSpec("l", mpki=10, footprint_bytes=4096, row_locality=0.0)

        def distinct_pages(spec):
            task = make_task(mapping, spec, num_pages=16)
            pages = [
                task.workload.next_access(task).address // mapping.page_bytes
                for _ in range(100)
            ]
            return len(set(pages))

        assert distinct_pages(high) < distinct_pages(low)

    def test_sequential_pattern_walks_pages_in_order(self, mapping):
        spec = BenchmarkSpec(
            "s", mpki=10, footprint_bytes=4096, row_locality=0.0,
            pattern=AccessPattern.SEQUENTIAL,
        )
        task = make_task(mapping, spec, num_pages=8)
        pages = [
            task.workload.next_access(task).address // mapping.page_bytes
            for _ in range(8)
        ]
        assert pages == task.frames[:8]

    def test_write_fraction_generates_writebacks(self, mapping):
        spec = BenchmarkSpec("w", mpki=10, footprint_bytes=4096, write_fraction=1.0)
        task = make_task(mapping, spec)
        task.workload.next_access(task)  # prime recent pages
        writebacks = sum(
            1 for _ in range(50)
            if task.workload.next_access(task).writeback_address is not None
        )
        assert writebacks == 50

    def test_zero_write_fraction_no_writebacks(self, mapping):
        spec = BenchmarkSpec("r", mpki=10, footprint_bytes=4096, write_fraction=0.0)
        task = make_task(mapping, spec)
        for _ in range(50):
            assert task.workload.next_access(task).writeback_address is None

    def test_burst_structure(self, mapping):
        spec = BenchmarkSpec("b", mpki=10, footprint_bytes=4096, mlp=4)
        task = make_task(mapping, spec)
        gaps = [task.workload.next_access(task).instructions for _ in range(16)]
        # Pattern: long, short x3, long, short x3 ...
        intra = task.workload._intra_instr
        for i, gap in enumerate(gaps):
            if i % 4 != 0:
                assert gap == intra

    def test_deterministic_given_seed(self, mapping):
        spec = BenchmarkSpec("d", mpki=10, footprint_bytes=4096)
        a = make_task(mapping, spec, seed=9)
        b = make_task(mapping, spec, seed=9)
        for _ in range(50):
            x, y = a.workload.next_access(a), b.workload.next_access(b)
            assert (x.instructions, x.address) == (y.instructions, y.address)
