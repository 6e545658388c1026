"""Unit tests for the refresh-aware scheduler (Algorithm 3)."""

import itertools
import random

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.cpu.core import Core
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.refresh import make_scheduler
from repro.dram.timing import DramTiming
from repro.errors import SchedulerError
from repro.os.refresh_aware import RefreshAwareScheduler
from repro.os.task import Task
from repro.workloads.generator import MemAccess


class ComputeWorkload:
    mlp = 1
    name = "compute"

    def next_access(self, task):
        return MemAccess(100, 100, None)


def build(refresh_policy="same_bank", **kwargs):
    config = default_system_config(refresh_scale=1024)
    timing = DramTiming.from_config(config)
    engine = Engine()
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=16)
    mc = MemoryController(engine, timing, org, mapping)
    refresh = make_scheduler(refresh_policy)
    refresh.attach(mc, engine, timing)
    cores = [Core(i, engine, mc) for i in range(1)]
    quantum = timing.refresh_stretch
    scheduler = RefreshAwareScheduler(engine, cores, quantum, refresh, **kwargs)
    return engine, timing, scheduler


_ids = itertools.count()


def make_task(name, banks):
    task = Task(name, ComputeWorkload(), possible_banks=frozenset(banks),
                task_id=next(_ids))
    task.rng = random.Random(3)
    # Simulate data presence in exactly the allowed banks.
    for i, bank in enumerate(sorted(banks)):
        task.add_frame(i, bank)
    return task


def test_requires_predictable_refresh_schedule():
    with pytest.raises(SchedulerError):
        build(refresh_policy="per_bank")


def test_picks_task_without_data_in_refresh_bank():
    engine, timing, scheduler = build()
    dirty = make_task("dirty", banks=set(range(16)))
    clean = make_task("clean", banks=set(range(16)) - {0, 8})
    dirty.vruntime = 0.0
    clean.vruntime = 100.0  # CFS alone would pick `dirty`
    scheduler.add_task(dirty, cpu=0)
    scheduler.add_task(clean, cpu=0)
    scheduler.start()  # first quantum: stretch bank 0
    assert scheduler.cores[0].current_task is clean
    assert scheduler.clean_picks == 1


def test_falls_back_to_leftmost_when_no_clean_task():
    engine, timing, scheduler = build()
    a = make_task("a", banks=set(range(16)))
    b = make_task("b", banks=set(range(16)))
    a.vruntime, b.vruntime = 5.0, 9.0
    scheduler.add_task(a, cpu=0)
    scheduler.add_task(b, cpu=0)
    scheduler.start()
    assert scheduler.cores[0].current_task is a  # fairness fallback
    assert scheduler.fallback_picks == 1


def test_eta_thresh_limits_search_depth():
    engine, timing, scheduler = build(eta_thresh=1)
    dirty = make_task("dirty", banks=set(range(16)))
    clean = make_task("clean", banks=set(range(16)) - {0, 8})
    dirty.vruntime, clean.vruntime = 0.0, 10.0
    scheduler.add_task(dirty, cpu=0)
    scheduler.add_task(clean, cpu=0)
    scheduler.start()
    # eta=1: only the leftmost is examined -> refresh-awareness disabled.
    assert scheduler.cores[0].current_task is dirty


def test_rotation_over_full_window_never_schedules_dirty_task():
    engine, timing, scheduler = build()
    # Two tasks covering complementary halves of the banks.
    a = make_task("a", banks=set(range(8)))          # rank 0 only
    b = make_task("b", banks=set(range(8, 16)))      # rank 1 only
    scheduler.add_task(a, cpu=0)
    scheduler.add_task(b, cpu=0)
    scheduler.refresh_scheduler.start()
    scheduler.start()
    core = scheduler.cores[0]
    picks = []

    def sample():
        picks.append((scheduler.refresh_scheduler.stretch_bank_at(engine.now),
                      core.current_task.name))
        if engine.now + timing.refresh_stretch < timing.trefw:
            engine.schedule(timing.refresh_stretch, sample)

    engine.schedule(timing.refresh_stretch // 2, sample)
    engine.run_until(timing.trefw - 1)
    assert len(picks) == 16
    for stretch_bank, name in picks:
        expected = "b" if stretch_bank < 8 else "a"
        assert name == expected, picks


def test_best_effort_picks_min_fraction():
    engine, timing, scheduler = build(best_effort=True)
    # Every task has data in bank 0; pick the one with the least.
    heavy = make_task("heavy", banks={0, 1})       # 1/2 in bank 0
    light = make_task("light", banks={0, 1, 2, 3})  # 1/4 in bank 0
    heavy.vruntime, light.vruntime = 0.0, 10.0
    scheduler.add_task(heavy, cpu=0)
    scheduler.add_task(light, cpu=0)
    scheduler.start()
    assert scheduler.cores[0].current_task is light
    assert scheduler.fallback_picks == 1


def test_best_effort_still_prefers_zero_fraction():
    engine, timing, scheduler = build(best_effort=True)
    some = make_task("some", banks={0, 1})
    none = make_task("none", banks={4, 5})
    some.vruntime, none.vruntime = 0.0, 10.0
    scheduler.add_task(some, cpu=0)
    scheduler.add_task(none, cpu=0)
    scheduler.start()
    assert scheduler.cores[0].current_task is none
    assert scheduler.clean_picks == 1


def test_non_runnable_tasks_skipped():
    engine, timing, scheduler = build()
    sleeping = make_task("sleeping", banks={1, 2})
    awake = make_task("awake", banks=set(range(16)))
    sleeping.runnable = False
    scheduler.add_task(sleeping, cpu=0)
    scheduler.add_task(awake, cpu=0)
    scheduler.start()
    assert scheduler.cores[0].current_task is awake


def test_next_refresh_bank_mid_quantum_sampling():
    engine, timing, scheduler = build()
    assert scheduler.next_refresh_bank() == 0
    engine.schedule(timing.refresh_stretch, lambda: None)
    engine.run_until(timing.refresh_stretch)
    assert scheduler.next_refresh_bank() == 1
