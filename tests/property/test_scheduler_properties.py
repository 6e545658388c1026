"""Property-based tests for the OS schedulers."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.cpu.core import Core
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.refresh import make_scheduler
from repro.dram.timing import DramTiming
from repro.os.refresh_aware import RefreshAwareScheduler
from repro.os.scheduler import CfsScheduler
from repro.os.task import Task
from repro.workloads.generator import MemAccess


class ComputeWorkload:
    mlp = 1
    name = "compute"

    def next_access(self, task):
        return MemAccess(100, 100, None)


def build(num_cores, quantum, refresh_aware=False):
    config = default_system_config(refresh_scale=1024)
    timing = DramTiming.from_config(config)
    engine = Engine()
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=16)
    mc = MemoryController(engine, timing, org, mapping)
    cores = [Core(i, engine, mc) for i in range(num_cores)]
    if refresh_aware:
        refresh = make_scheduler("same_bank")
        refresh.attach(mc, engine, timing)
        scheduler = RefreshAwareScheduler(engine, cores, quantum, refresh)
    else:
        scheduler = CfsScheduler(engine, cores, quantum)
    return engine, scheduler, timing


_ids = itertools.count()


def make_task(name, banks=None):
    task = Task(name, ComputeWorkload(),
                possible_banks=frozenset(banks) if banks else None,
                task_id=next(_ids))
    task.rng = random.Random(1)
    if banks:
        for i, bank in enumerate(sorted(banks)):
            task.add_frame(i, bank)
    return task


@given(
    num_tasks=st.integers(1, 12),
    num_cores=st.sampled_from([1, 2, 4]),
    quanta=st.integers(8, 40),
)
@settings(max_examples=50, deadline=None)
def test_cfs_equal_share_property(num_tasks, num_cores, quanta):
    """Equal-weight always-runnable tasks receive CPU time within one
    quantum of each other over any horizon."""
    quantum = 500
    engine, scheduler, _ = build(num_cores, quantum)
    tasks = [make_task(f"t{i}") for i in range(num_tasks)]
    for task in tasks:
        scheduler.add_task(task)
    scheduler.start()
    engine.run_until(quantum * quanta)
    for core in scheduler.cores:
        core.preempt()
    cycles = [t.stats.scheduled_cycles for t in tasks]
    total = sum(cycles)
    busy_cores = min(num_cores, num_tasks)
    assert total == quantum * quanta * busy_cores
    # Fairness holds *within* each runqueue (cross-queue balance is the
    # load balancer's job, not CFS's).
    for runqueue in scheduler.runqueues:
        queue_cycles = [t.stats.scheduled_cycles for t in runqueue.tasks()]
        if queue_cycles:
            assert max(queue_cycles) - min(queue_cycles) <= 2 * quantum


@given(
    data=st.data(),
    num_tasks=st.integers(2, 8),
)
@settings(max_examples=50, deadline=None)
def test_refresh_aware_never_picks_dirty_when_clean_exists(data, num_tasks):
    """Algorithm 3's defining property, under arbitrary bank vectors."""
    stretch = DramTiming.from_config(
        default_system_config(refresh_scale=1024)
    ).refresh_stretch
    engine, scheduler, timing = build(1, stretch, refresh_aware=True)
    tasks = []
    for i in range(num_tasks):
        banks = data.draw(
            st.sets(st.integers(0, 15), min_size=1, max_size=16),
            label=f"banks{i}",
        )
        task = make_task(f"t{i}", banks=banks)
        task.vruntime = float(data.draw(st.integers(0, 100), label=f"vr{i}"))
        tasks.append(task)
        scheduler.add_task(task, cpu=0)

    refresh_bank = scheduler.next_refresh_bank()
    picked = scheduler.pick_next_task(scheduler.runqueues[0])
    assert picked is not None
    clean_exists = any(not t.has_data_in_bank(refresh_bank) for t in tasks)
    if clean_exists:
        assert not picked.has_data_in_bank(refresh_bank)
    else:
        # Fairness fallback: leftmost by vruntime.
        leftmost = min(tasks, key=lambda t: (t.vruntime, t.task_id))
        assert picked is leftmost
