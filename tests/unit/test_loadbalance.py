"""Unit tests for the CFS load balancer."""

import itertools
import random

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.cpu.core import Core
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.timing import DramTiming
from repro.os.loadbalance import LoadBalancer
from repro.os.scheduler import CfsScheduler
from repro.os.task import Task
from repro.workloads.generator import MemAccess


class ComputeWorkload:
    mlp = 1
    name = "compute"

    def next_access(self, task):
        return MemAccess(100, 100, None)


def build(num_cores=2, quantum=1000):
    config = default_system_config(refresh_scale=1024)
    engine = Engine()
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=16)
    mc = MemoryController(engine, DramTiming.from_config(config), org, mapping)
    cores = [Core(i, engine, mc) for i in range(num_cores)]
    return engine, CfsScheduler(engine, cores, quantum)


_ids = itertools.count()


def make_task(name, banks=None):
    task = Task(name, ComputeWorkload(),
                possible_banks=frozenset(banks) if banks else None,
                task_id=next(_ids))
    task.rng = random.Random(1)
    return task


def test_rebalance_equalizes_queues():
    engine, scheduler = build()
    for i in range(6):
        scheduler.add_task(make_task(f"t{i}"), cpu=0)  # all on cpu0
    balancer = LoadBalancer(scheduler)
    moved = balancer.rebalance()
    assert moved == 3
    assert scheduler.runqueues[0].nr_running == 3
    assert scheduler.runqueues[1].nr_running == 3


def test_balanced_queues_untouched():
    engine, scheduler = build()
    for i in range(4):
        scheduler.add_task(make_task(f"t{i}"))
    balancer = LoadBalancer(scheduler)
    assert balancer.rebalance() == 0
    assert balancer.migrations == 0


def test_off_by_one_tolerated():
    engine, scheduler = build()
    for i in range(3):
        scheduler.add_task(make_task(f"t{i}"), cpu=0)
    scheduler.add_task(make_task("t3"), cpu=1)
    scheduler.add_task(make_task("t4"), cpu=1)
    balancer = LoadBalancer(scheduler)
    assert balancer.rebalance() == 0  # 3 vs 2: within tolerance


def test_periodic_balancing_via_engine():
    engine, scheduler = build(quantum=100)
    for i in range(6):
        scheduler.add_task(make_task(f"t{i}"), cpu=0)
    balancer = LoadBalancer(scheduler, interval_quanta=2)
    balancer.start()
    scheduler.start()
    engine.run_until(100 * 6 + 1)  # several balancing passes
    total = [
        rq.nr_running + (0 if core.is_idle else 1)
        for rq, core in zip(scheduler.runqueues, scheduler.cores)
    ]
    # Tasks per core (queued + running) converge to balance.
    assert abs(total[0] - total[1]) <= 1
    assert balancer.migrations >= 2


def test_naive_migration_picks_longest_waiting():
    engine, scheduler = build()
    tasks = [make_task(f"t{i}") for i in range(4)]
    for i, t in enumerate(tasks):
        t.vruntime = float(i)
        scheduler.add_task(t, cpu=0)
    balancer = LoadBalancer(scheduler)
    balancer.rebalance()
    migrated = scheduler.runqueues[1].tasks()
    assert tasks[3] in migrated  # max vruntime went first


def test_bank_aware_prefers_redundant_and_useful():
    engine, scheduler = build()
    all_banks = set(range(16))
    # Source core: two tasks excluding {0,1} (redundant pair), one excluding
    # {2,3} (unique).  Destination: one task excluding {0,1}.
    a1 = make_task("a1", banks=all_banks - {0, 1})
    a2 = make_task("a2", banks=all_banks - {0, 1})
    unique = make_task("unique", banks=all_banks - {2, 3})
    dest = make_task("dest", banks=all_banks - {0, 1})
    for t in (a1, a2, unique):
        scheduler.add_task(t, cpu=0)
    scheduler.add_task(dest, cpu=1)

    # Give the unique task the highest vruntime: the naive policy would
    # migrate it, breaking source coverage of banks {2,3}.
    unique.vruntime = 100.0

    balancer = LoadBalancer(scheduler, bank_aware=True)
    balancer.rebalance()
    migrated = scheduler.runqueues[1].tasks()
    assert unique not in migrated
    assert a1 in migrated or a2 in migrated


def test_invalid_interval():
    engine, scheduler = build()
    with pytest.raises(ValueError):
        LoadBalancer(scheduler, interval_quanta=0)
