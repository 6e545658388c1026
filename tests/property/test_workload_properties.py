"""Property-based tests for the statistical workload generator."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.dram_configs import DramOrganization
from repro.dram.address import AddressMapping
from repro.os.task import Task
from repro.workloads.benchmark import AccessPattern, BenchmarkSpec
from repro.workloads.generator import StatisticalWorkload

specs = st.builds(
    BenchmarkSpec,
    name=st.just("prop"),
    mpki=st.floats(min_value=0.5, max_value=60.0),
    footprint_bytes=st.integers(min_value=4096, max_value=40 * 4096),
    base_cpi=st.floats(min_value=0.3, max_value=1.0),
    mlp=st.integers(min_value=1, max_value=10),
    row_locality=st.floats(min_value=0.0, max_value=0.95),
    write_fraction=st.floats(min_value=0.0, max_value=0.6),
    pattern=st.sampled_from(list(AccessPattern)),
)


def make_task(spec, seed, num_pages=16):
    mapping = AddressMapping(DramOrganization(), total_rows_per_bank=64)
    workload = StatisticalWorkload(spec, mapping)
    task = Task(spec.name, workload, task_id=0)
    task.rng = random.Random(seed)
    for frame in range(num_pages):
        task.add_frame(frame, mapping.frame_to_bank_index(frame))
    return task, mapping


@given(spec=specs, seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_addresses_always_within_task_pages(spec, seed):
    task, mapping = make_task(spec, seed)
    frames = set(task.frames)
    for _ in range(100):
        access = task.workload.next_access(task)
        assert access.instructions >= 1
        assert access.gap_cycles >= 1
        if access.address is not None:
            assert access.address // mapping.page_bytes in frames
        if access.writeback_address is not None:
            assert access.writeback_address // mapping.page_bytes in frames


@given(spec=specs, seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_mean_instructions_matches_mpki(spec, seed):
    task, _ = make_task(spec, seed)
    n = 3000
    total = sum(task.workload.next_access(task).instructions for _ in range(n))
    expected = spec.instructions_per_miss()
    assert 0.7 * expected <= total / n <= 1.4 * expected


@given(spec=specs, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_generator_deterministic(spec, seed):
    a, _ = make_task(spec, seed)
    b, _ = make_task(spec, seed)
    for _ in range(60):
        x = a.workload.next_access(a)
        y = b.workload.next_access(b)
        assert (x.instructions, x.address, x.writeback_address) == (
            y.instructions,
            y.address,
            y.writeback_address,
        )


@given(
    mlp=st.integers(min_value=2, max_value=10),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_burst_structure_has_mlp_misses_per_burst(mlp, seed):
    spec = BenchmarkSpec(
        "burst", mpki=20.0, footprint_bytes=16 * 4096, mlp=mlp,
        row_locality=0.0,
    )
    task, _ = make_task(spec, seed)
    workload = task.workload
    gaps = [workload.next_access(task).instructions for _ in range(mlp * 6)]
    intra = workload._intra_instr
    # Within each burst of `mlp` misses, gaps 1..mlp-1 are the short ones.
    for burst_start in range(0, len(gaps), mlp):
        chunk = gaps[burst_start : burst_start + mlp]
        assert all(g == intra for g in chunk[1:])
        assert chunk[0] >= 1
