"""Integration tests for demand paging in full-system simulations."""

import pytest

from repro import api
from repro.config.system_configs import OsConfig
from repro.core.simulator import build_system

FAST = dict(num_windows=0.5, warmup_windows=0.1, refresh_scale=512)


def test_cold_start_faults_in_footprint():
    system = build_system(
        "WL-9",
        "per_bank",
        os=OsConfig(demand_paging=True, prefault=False),
        refresh_scale=512,
    )
    result = system.run(num_windows=0.5, warmup_windows=0.1)
    assert result.hmean_ipc > 0
    total_minor = sum(t.vm.stats.minor_faults for t in system.tasks)
    assert total_minor > 0
    # No thrashing: everything fits (soft spill / unrestricted).
    assert all(t.vm.stats.major_faults == 0 for t in system.tasks)


def test_prefault_makes_warm_start_fault_free():
    system = build_system(
        "WL-9", "per_bank", os=OsConfig(demand_paging=True), refresh_scale=512
    )
    for task in system.tasks:
        assert task.vm.resident_pages == task.vm.footprint_pages
    system.run(num_windows=0.5, warmup_windows=0.1)
    assert all(t.vm.stats.faults == 0 for t in system.tasks)


def test_demand_paging_matches_preallocation_when_warm():
    slow = dict(num_windows=1.0, warmup_windows=0.25, refresh_scale=512)
    pre = api.run("WL-9", "per_bank", **slow)
    demand = api.run(
        "WL-9", "per_bank", os=OsConfig(demand_paging=True), **slow
    )
    # Warm-start demand paging behaves like preallocation.
    assert demand.hmean_ipc == pytest.approx(pre.hmean_ipc, rel=0.1)


def _overcommitted_specs():
    """Four streaming tasks whose footprints (2000 pages each at
    capacity_scale=1024) overflow their 2-banks-per-rank hard partitions
    (2048 frames shared by two tasks) but fit total memory (8192 frames)
    when allowed to spill.  The sequential sweep with no reuse touches the
    whole footprint quickly, forcing the overflow to manifest."""
    from repro.units import KB
    from repro.workloads.benchmark import AccessPattern, BenchmarkSpec

    footprint = 2000 * 4 * KB * 1024  # -> 2000 pages after scaling
    return [
        BenchmarkSpec(
            "bigdata",
            mpki=50.0,
            footprint_bytes=footprint,
            mlp=8,
            base_cpi=0.4,
            row_locality=0.0,
            pattern=AccessPattern.SEQUENTIAL,
        )
    ] * 4


def test_hard_partition_thrashing_is_catastrophic():
    """The Section 5.2.1 warning, end to end: hard-partitioned tasks whose
    footprints exceed their banks thrash (major faults) and collapse,
    while the soft variant spills and survives."""
    specs = _overcommitted_specs()
    build_kwargs = dict(
        os=OsConfig(demand_paging=True),
        capacity_scale=1024,
        banks_per_task=2,
        refresh_scale=512,
    )
    soft_system = build_system(specs, "codesign", **build_kwargs)
    soft = soft_system.run(num_windows=0.5, warmup_windows=0.1)
    hard_system = build_system(specs, "codesign_hard", **build_kwargs)
    hard = hard_system.run(num_windows=0.5, warmup_windows=0.1)

    hard_majors = sum(t.vm.stats.major_faults for t in hard_system.tasks)
    soft_majors = sum(t.vm.stats.major_faults for t in soft_system.tasks)
    assert hard_majors > 0
    assert soft_majors == 0
    assert hard.hmean_ipc < soft.hmean_ipc


def test_codesign_with_demand_paging_still_avoids_refresh_stalls():
    result = api.run(
        "WL-6", "codesign", os=OsConfig(demand_paging=True),
        num_windows=1.0, warmup_windows=0.25, refresh_scale=512,
    )
    assert result.refresh_stall_fraction < 0.02


def test_working_set_resident_pages_bounded_by_footprint():
    system = build_system(
        "WL-9", "per_bank", os=OsConfig(demand_paging=True), refresh_scale=512
    )
    system.run(num_windows=0.5, warmup_windows=0.0)
    for task in system.tasks:
        assert task.vm.resident_pages <= task.vm.footprint_pages
        assert len(task.frames) == task.vm.resident_pages
