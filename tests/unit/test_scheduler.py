"""Unit tests for the CFS scheduler driving cores at quantum granularity."""

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
from repro.errors import SchedulerError
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
    scheduler = CfsScheduler(engine, cores, quantum)
    return engine, cores, scheduler


_ids = itertools.count()


def make_task(name):
    task = Task(name, ComputeWorkload(), task_id=next(_ids))
    task.rng = random.Random(1)
    return task


def test_quantum_must_be_positive():
    engine, cores, _ = build()
    with pytest.raises(SchedulerError):
        CfsScheduler(engine, cores, 0)


def test_add_task_balances_queues():
    engine, cores, scheduler = build(num_cores=2)
    tasks = [make_task(f"t{i}") for i in range(4)]
    for t in tasks:
        scheduler.add_task(t)
    assert scheduler.runqueues[0].nr_running == 2
    assert scheduler.runqueues[1].nr_running == 2


def test_tasks_listed_from_queues_and_cores():
    engine, cores, scheduler = build()
    tasks = [make_task(f"t{i}") for i in range(4)]
    for t in tasks:
        scheduler.add_task(t)
    scheduler.start()
    engine.run_until(10)
    assert set(scheduler.tasks()) == set(tasks)


def test_round_robin_fair_share():
    engine, cores, scheduler = build(num_cores=1, quantum=1000)
    tasks = [make_task(f"t{i}") for i in range(4)]
    for t in tasks:
        scheduler.add_task(t, cpu=0)
    scheduler.start()
    engine.run_until(8000)  # 8 quanta for 4 tasks
    cycles = sorted(t.stats.scheduled_cycles for t in tasks)
    assert cycles == [2000, 2000, 2000, 2000]


def test_vruntime_advances_per_quantum():
    engine, cores, scheduler = build(num_cores=1, quantum=500)
    a, b = make_task("a"), make_task("b")
    scheduler.add_task(a, cpu=0)
    scheduler.add_task(b, cpu=0)
    scheduler.start()
    engine.run_until(2000)
    assert a.vruntime > 0
    assert b.vruntime > 0
    assert abs(a.vruntime - b.vruntime) <= 500


def test_weighted_task_runs_more():
    engine, cores, scheduler = build(num_cores=1, quantum=100)
    heavy, light = make_task("heavy"), make_task("light")
    heavy.weight = 3.0
    scheduler.add_task(heavy, cpu=0)
    scheduler.add_task(light, cpu=0)
    scheduler.start()
    engine.run_until(100 * 40)
    assert heavy.stats.scheduled_cycles > 2 * light.stats.scheduled_cycles


def test_idle_core_with_no_tasks():
    engine, cores, scheduler = build(num_cores=2)
    scheduler.add_task(make_task("only"), cpu=0)
    scheduler.start()
    engine.run_until(5000)
    assert cores[1].is_idle


def test_context_switch_counter():
    engine, cores, scheduler = build(num_cores=1, quantum=100)
    for i in range(2):
        scheduler.add_task(make_task(f"t{i}"), cpu=0)
    scheduler.start()
    engine.run_until(1000)
    assert scheduler.context_switches >= 10


def test_start_twice_raises():
    engine, cores, scheduler = build()
    scheduler.add_task(make_task("a"))
    scheduler.start()
    with pytest.raises(SchedulerError):
        scheduler.start()
