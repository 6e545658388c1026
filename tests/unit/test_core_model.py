"""Unit tests for the interval core model (MLP, ROB, context switches)."""


import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.cpu.core import Core
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.timing import DramTiming
from repro.os.task import Task
from repro.workloads.benchmark import MemAccess


class ScriptedWorkload:
    """Deterministic workload for driving the core in tests."""

    def __init__(self, accesses, mlp=2, name="scripted"):
        self.accesses = list(accesses)
        self.mlp = mlp
        self.name = name
        self._i = 0

    def next_access(self, task) -> MemAccess:
        access = self.accesses[self._i % len(self.accesses)]
        self._i += 1
        return access


@pytest.fixture
def setup():
    config = default_system_config(refresh_scale=1024)
    timing = DramTiming.from_config(config)
    engine = Engine()
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=64)
    mc = MemoryController(engine, timing, org, mapping)
    return engine, mapping, mc, timing


def make_task(workload) -> Task:
    import random

    task = Task("t", workload, task_id=0)
    task.rng = random.Random(7)
    return task


def address(mapping, frame, column=0):
    return mapping.frame_offset_to_address(frame, column * 64)


def test_compute_only_task_credits_instructions(setup):
    engine, mapping, mc, _ = setup
    workload = ScriptedWorkload([MemAccess(100, 50, None)])
    task = make_task(workload)
    core = Core(0, engine, mc)
    core.run_task(task)
    engine.run_until(500)
    core.preempt()
    # 10 gaps of 50 cycles = 500 cycles -> 1000 instructions.
    assert task.stats.instructions == pytest.approx(1000, abs=100)
    assert task.stats.scheduled_cycles == 500
    assert task.stats.reads_issued == 0


def test_memory_task_issues_requests(setup):
    engine, mapping, mc, _ = setup
    workload = ScriptedWorkload([MemAccess(10, 20, address(mapping, 0))])
    task = make_task(workload)
    core = Core(0, engine, mc)
    core.run_task(task)
    engine.run_until(5_000)
    core.preempt()
    assert task.stats.reads_issued > 0
    assert task.stats.reads_completed > 0
    assert task.stats.avg_read_latency > 0


def test_read_latency_recorded_on_completion(setup):
    """Each completed read adds its latency and refresh stall to the
    task's stats, including reads that complete after the task left the
    core."""
    engine, mapping, mc, _ = setup
    workload = ScriptedWorkload(
        [
            MemAccess(10, 20, address(mapping, 0)),
            MemAccess(10, 20, address(mapping, 16, column=3)),
        ]
    )
    task = make_task(workload)
    core = Core(0, engine, mc)
    seen = []
    complete = core._on_read_complete

    def spy(request):
        seen.append((request.latency, request.refresh_stall))
        complete(request)

    core._on_read_complete = spy
    assert task.stats.avg_read_latency == 0.0  # no reads yet
    core.run_task(task)
    engine.run_until(2_000)
    core.preempt()
    engine.run_until(50_000)  # in-flight reads complete for a stale epoch
    stats = task.stats
    assert stats.reads_completed == len(seen) == stats.reads_issued > 2
    assert stats.read_latency_sum == sum(latency for latency, _ in seen)
    assert stats.refresh_stall_sum == sum(stall for _, stall in seen)
    assert stats.avg_read_latency == stats.read_latency_sum / len(seen)


def test_mlp_limits_outstanding(setup):
    engine, mapping, mc, _ = setup
    # Huge memory latency exposure: all to one bank row-conflicts.
    accesses = [
        MemAccess(1, 1, address(mapping, 0)),
        MemAccess(1, 1, address(mapping, 16)),
    ]
    workload = ScriptedWorkload(accesses, mlp=2)
    task = make_task(workload)
    core = Core(0, engine, mc)
    core.run_task(task)
    engine.run_until(50)
    # With mlp=2 only two requests can be in flight this early.
    assert task.stats.reads_issued <= 2
    assert task.stats.mlp_stalls >= 1


def test_rob_blocks_front_end(setup):
    engine, mapping, mc, _ = setup
    # Each miss carries a 100-instruction gap; ROB of 128 allows only ~1
    # outstanding miss beyond the head even though MLP is 8.
    workload = ScriptedWorkload([MemAccess(100, 10, address(mapping, 0))], mlp=8)
    task = make_task(workload)
    core = Core(0, engine, mc, rob_entries=128)
    core.run_task(task)
    engine.run_until(30)
    assert task.stats.reads_issued <= 3


def test_large_rob_allows_more_mlp(setup):
    engine, mapping, mc, _ = setup
    issued = {}
    for rob in (128, 4096):
        workload = ScriptedWorkload(
            [MemAccess(100, 10, address(mapping, 0))], mlp=8
        )
        task = make_task(workload)
        # fresh engine and controller per run to keep timing isolated
        eng = Engine()
        mc2 = MemoryController(eng, mc.timing, mc.org, mc.mapping)
        core = Core(0, eng, mc2, rob_entries=rob)
        core.run_task(task)
        eng.run_until(60)
        issued[rob] = task.stats.reads_issued
    assert issued[4096] > issued[128]


def test_preempt_credits_partial_gap(setup):
    engine, mapping, mc, _ = setup
    workload = ScriptedWorkload([MemAccess(1000, 1000, None)])
    task = make_task(workload)
    core = Core(0, engine, mc)
    core.run_task(task)
    engine.run_until(500)  # halfway through the first gap
    core.preempt()
    assert task.stats.instructions == pytest.approx(500, abs=5)


def test_preempt_rounding_credits_half_up(setup):
    """Regression: a 3-instruction gap preempted halfway credits 2
    instructions (1.5 rounded half-up); bare int() used to truncate to 1."""
    engine, mapping, mc, _ = setup
    workload = ScriptedWorkload([MemAccess(3, 1000, None)])
    task = make_task(workload)
    core = Core(0, engine, mc)
    core.run_task(task)
    engine.run_until(500)
    core.preempt()
    assert task.stats.instructions == 2


def test_compute_chain_fast_forward_credits_exactly(setup):
    """Folded compute chains process far fewer events but credit exactly
    the instructions the one-event-per-gap schedule credited."""
    engine, mapping, mc, _ = setup
    workload = ScriptedWorkload([MemAccess(100, 50, None)])
    task = make_task(workload)
    core = Core(0, engine, mc)
    core.run_task(task)
    engine.run_until(50 * 1000)  # 1000 gaps
    core.preempt()
    assert task.stats.instructions == 100 * 1000
    assert engine.events_processed < 40  # ~1 event per 65 folded gaps


def test_sync_accounting_matches_per_gap_credit(setup):
    engine, mapping, mc, _ = setup
    workload = ScriptedWorkload([MemAccess(100, 50, None)])
    task = make_task(workload)
    core = Core(0, engine, mc)
    core.run_task(task)
    engine.run_until(125)  # halfway through the third gap
    core.sync_accounting()
    # Only the two fully elapsed gaps are credited; the in-progress gap
    # is left to preemption proration, exactly like the unfolded schedule.
    assert task.stats.instructions == 200


def test_fast_forward_respects_quantum_boundary(setup):
    engine, mapping, mc, _ = setup
    workload = ScriptedWorkload([MemAccess(10, 100, None)])
    task = make_task(workload)
    core = Core(0, engine, mc)
    core.run_task(task, quantum_end=350)
    # Gaps end at 100/200/300/400...; only those strictly inside the
    # quantum are folded, plus the one in-flight crossing access.
    assert workload._i == 4


def test_preempt_and_resume_roundtrip(setup):
    engine, mapping, mc, _ = setup
    workload = ScriptedWorkload([MemAccess(10, 20, address(mapping, 1))])
    task = make_task(workload)
    core = Core(0, engine, mc)
    core.run_task(task)
    engine.run_until(1_000)
    returned = core.preempt()
    assert returned is task
    assert core.is_idle
    engine.run_until(2_000)
    issued_before = task.stats.reads_issued
    core.run_task(task)
    engine.run_until(3_000)
    core.preempt()
    assert task.stats.reads_issued > issued_before
    assert task.stats.scheduled_cycles == 2_000


def test_stale_completions_ignored_after_switch(setup):
    engine, mapping, mc, _ = setup
    workload_a = ScriptedWorkload([MemAccess(1, 1, address(mapping, 0))], mlp=4)
    workload_b = ScriptedWorkload([MemAccess(50, 100, None)])
    a, b = make_task(workload_a), make_task(workload_b)
    core = Core(0, engine, mc)
    core.run_task(a)
    engine.run_until(3)  # a has requests in flight
    core.preempt()
    core.run_task(b)
    engine.run_until(10_000)  # a's completions arrive while b runs
    core.preempt()
    # b was never blocked or corrupted by a's stale completions.
    assert b.stats.instructions > 0
    assert a.stats.reads_completed > 0  # stale completions still recorded


def test_idle_core_accumulates_idle_cycles(setup):
    engine, mapping, mc, _ = setup
    core = Core(0, engine, mc)
    core.run_task(None)
    engine.run_until(100)
    workload = ScriptedWorkload([MemAccess(10, 10, None)])
    task = make_task(workload)
    core._epoch += 0  # no-op; just ensure attribute exists
    core.current_task = None
    core.run_task(task)
    assert core.idle_cycles == 100


def test_double_run_task_raises(setup):
    from repro.errors import SimulationError

    engine, mapping, mc, _ = setup
    workload = ScriptedWorkload([MemAccess(10, 10, None)])
    core = Core(0, engine, mc)
    core.run_task(make_task(workload))
    with pytest.raises(SimulationError):
        core.run_task(make_task(workload))
