"""Micro-benchmarks: raw throughput of the simulator's hot components.

Unlike the figure benchmarks (one-shot experiment regenerations), these
use pytest-benchmark conventionally — many rounds of small operations —
to track the simulator's own performance over time.
"""

import random

from repro.bench import kernels
from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming
from repro.os.buddy import BuddyAllocator
from repro.os.page import PhysicalMemory
from repro.os.partition import PartitioningAllocator, PartitionPolicy
from repro.os.task import Task


def test_engine_event_throughput(benchmark):
    def run_events():
        engine = Engine()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 5000:
                engine.schedule(1, tick)

        engine.schedule(0, tick)
        engine.run()
        return counter[0]

    assert benchmark(run_events) == 5000


def test_controller_request_throughput(benchmark):
    config = default_system_config(refresh_scale=1024)
    timing = DramTiming.from_config(config)
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=64)
    rng = random.Random(7)
    addresses = [
        mapping.frame_offset_to_address(
            rng.randrange(mapping.total_frames), rng.randrange(64) * 64
        )
        for _ in range(2000)
    ]

    def run_requests():
        engine = Engine()
        mc = MemoryController(engine, timing, org, mapping)
        done = []
        for address in addresses:
            mc.enqueue(
                MemoryRequest(
                    RequestType.READ, address,
                    mapping.address_to_coordinate(address),
                    on_complete=done.append,
                )
            )
        engine.run_until(50_000_000)
        return len(done)

    assert benchmark(run_requests) == 2000


def test_buddy_alloc_free_throughput(benchmark):
    def churn():
        buddy = BuddyAllocator(4096)
        frames = [buddy.alloc_page() for _ in range(4096)]
        for frame in frames:
            buddy.free(frame)
        return buddy.free_frames()

    assert benchmark(churn) == 4096


def test_partition_allocator_throughput(benchmark):
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=256)

    def churn():
        memory = PhysicalMemory(mapping)
        allocator = PartitioningAllocator(memory, PartitionPolicy.SOFT)
        task = Task(
            "bench", None, possible_banks=frozenset(range(0, 16, 2)), task_id=0
        )
        allocated = allocator.alloc_footprint(task, 2000)
        allocator.free_task(task)
        return allocated

    assert benchmark(churn) == 2000


def test_engine_handle_churn_throughput(benchmark):
    """Cancellable handles: handle allocation + stub compaction."""
    assert benchmark(kernels.engine_handle_churn) == 2500


def test_engine_far_future_mix_throughput(benchmark):
    """Mixed near/far delays exercising the bucket -> heap spill path."""
    assert benchmark(kernels.engine_far_future_mix) == 5000


def test_address_decode_throughput(benchmark):
    """Byte-address decode through the memoised frame tables."""
    assert benchmark(kernels.address_decode) == 20_000


def test_refresh_all_bank_tick_rate(benchmark):
    """All-bank refresh cadence incl. batched rank wake-ups."""
    assert benchmark(kernels.refresh_schedule_ticks) > 0


def test_core_compute_fast_forward_rate(benchmark):
    """Compute-gap issue loop: folded gap chains, one event per chain."""
    assert benchmark(kernels.core_compute_fast_forward) > 0


def test_workload_access_stream_rate(benchmark):
    """Per-miss generator: seeded draws from one WL-6 task on a frame list."""
    assert benchmark(kernels.workload_access_stream) == 20_000


def test_system_build_rate(benchmark):
    """One cold Figure-10 cell build, footprint allocation included."""
    assert benchmark(kernels.system_build) > 0


def test_full_quantum_simulation_rate(benchmark):
    """End-to-end cost of one scheduling quantum of WL-6 under codesign."""
    from repro.core.simulator import build_system

    def one_quantum():
        system = build_system("WL-6", "codesign", refresh_scale=2048)
        result = system.run(num_windows=0.25, warmup_windows=0.0)
        return result.reads_completed

    assert benchmark(one_quantum) >= 0


def test_checkpoint_roundtrip_rate(benchmark):
    """Per-barrier checkpoint cost: snapshot -> JSON -> fresh-system
    restore at a mid-run barrier of WL-6 codesign."""
    assert benchmark(kernels.checkpoint_roundtrip) > 0
