"""Integration tests for the remaining scenarios and scenario plumbing."""

import pytest

from repro import SCENARIOS, api, available_scenarios, available_workloads
from repro.config.dram_configs import DDR4_1600, FgrMode
from repro.core.simulator import build_system, compare_scenarios
from repro.errors import ConfigError
from repro.workloads.benchmark import BenchmarkSpec
from repro.units import MB

FAST = dict(num_windows=0.5, warmup_windows=0.1, refresh_scale=512)


def test_every_registered_scenario_runs():
    for name in available_scenarios():
        result = api.run("WL-9", name, **FAST)
        assert result.hmean_ipc > 0, name
        assert result.scenario == name


def test_available_workloads_all_run():
    for name in available_workloads():
        result = api.run(name, "per_bank", **FAST)
        assert result.hmean_ipc > 0, name


def test_unknown_scenario_and_workload_raise():
    with pytest.raises(ConfigError):
        api.run("WL-1", "warp_drive", **FAST)
    with pytest.raises(ConfigError):
        api.run("WL-0", "all_bank", **FAST)
    with pytest.raises(ConfigError):
        api.run([], "all_bank", **FAST)


def test_custom_spec_list_workload():
    specs = [
        BenchmarkSpec("custom_hot", mpki=20.0, footprint_bytes=64 * MB, mlp=4),
        BenchmarkSpec("custom_cold", mpki=0.2, footprint_bytes=8 * MB),
    ] * 2
    result = api.run(specs, "codesign", **FAST)
    assert result.workload == "custom"
    assert {t.name for t in result.tasks} == {"custom_hot", "custom_cold"}
    assert result.hmean_ipc > 0


def test_ooo_per_bank_beats_all_bank():
    results = compare_scenarios("WL-5", ["all_bank", "ooo_per_bank"], **FAST)
    assert results["ooo_per_bank"].hmean_ipc > results["all_bank"].hmean_ipc


def test_ddr4_fgr_modes_order():
    """Section 6.3: 2x/4x modes are worse than 1x for all-bank refresh."""
    ipc = {}
    for mode in (FgrMode.X1, FgrMode.X4):
        result = api.run(
            "WL-1", "all_bank", dram_timing=DDR4_1600, fgr_mode=mode, **FAST
        )
        ipc[mode] = result.hmean_ipc
    assert ipc[FgrMode.X4] < ipc[FgrMode.X1]


def test_codesign_hard_partition_runs():
    result = api.run("WL-9", "codesign_hard", **FAST)
    assert result.hmean_ipc > 0


def test_best_effort_handles_spilling_footprints():
    """Section 5.4.1: footprints exceeding the partition spill; the
    best-effort scheduler still runs and degrades gracefully."""
    # Tiny memory so mcf's footprint spills outside its 6-bank partition.
    result = api.run(
        "WL-1", "codesign_best_effort", capacity_scale=2048, **FAST
    )
    assert result.hmean_ipc > 0
    # Spilling forces some non-clean picks; best-effort handles them.
    assert result.scheduler_clean_picks + result.scheduler_fallback_picks > 0


def test_banks_per_task_override():
    narrow = api.run("WL-6", "codesign", banks_per_task=2, **FAST)
    wide = api.run("WL-6", "codesign", banks_per_task=6, **FAST)
    # Paper footnote 11: 6 banks beats 2 banks at 1:4 consolidation.
    assert wide.hmean_ipc > narrow.hmean_ipc


def test_quad_core_system_runs():
    from repro.config.dram_configs import DramOrganization
    from repro.config.system_configs import CoreConfig
    from repro.workloads.mixes import scaled_mix

    specs = scaled_mix("WL-6", 16)
    result = api.run(
        specs,
        "codesign",
        cores=CoreConfig(num_cores=4),
        organization=DramOrganization(ranks_per_channel=4),
        **FAST,
    )
    assert len(result.tasks) == 16
    assert result.hmean_ipc > 0
    assert result.scheduler_fallback_picks == 0


def test_system_cannot_run_twice():
    system = build_system("WL-9", "all_bank", refresh_scale=512)
    system.run(num_windows=0.25, warmup_windows=0.0)
    with pytest.raises(ConfigError):
        system.run(num_windows=0.25)


def test_scenario_objects_exposed():
    assert "codesign" in SCENARIOS
    scenario = SCENARIOS["codesign"]
    assert scenario.refresh_policy == "same_bank"
    assert scenario.refresh_aware
