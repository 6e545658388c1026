"""Unit tests for the DRAM energy model."""

import pytest

from repro import api
from repro.core.results import EnergyBreakdown
from repro.dram.power import DramEnergyParams

FAST = dict(num_windows=0.5, warmup_windows=0.1, refresh_scale=512)


def test_breakdown_totals_and_power():
    breakdown = EnergyBreakdown(
        background_mj=1.0, activate_mj=0.5, read_mj=0.25, write_mj=0.25,
        refresh_mj=0.5, elapsed_ns=1e6,
    )
    assert breakdown.total_mj == pytest.approx(2.5)
    assert breakdown.refresh_fraction == pytest.approx(0.2)
    # 2.5 mJ over 1 ms = 2.5 W = 2500 mW.
    assert breakdown.average_power_mw == pytest.approx(2500)
    assert "mJ" in str(breakdown)


def test_zero_interval():
    breakdown = EnergyBreakdown(0, 0, 0, 0, 0, elapsed_ns=0)
    assert breakdown.total_mj == 0
    assert breakdown.average_power_mw == 0
    assert breakdown.refresh_fraction == 0


def test_params_cycle_conversion():
    params = DramEnergyParams(cpu_freq_ghz=3.2)
    assert params.cycles_to_ns(3200) == pytest.approx(1000)


def test_run_result_carries_energy():
    result = api.run("WL-9", "all_bank", **FAST)
    assert result.energy is not None
    assert result.energy.total_mj > 0
    assert result.energy.refresh_mj > 0
    assert 0 < result.energy.refresh_fraction < 1


def test_no_refresh_has_zero_refresh_energy():
    result = api.run("WL-9", "no_refresh", **FAST)
    assert result.energy.refresh_mj == 0


def test_refresh_energy_similar_across_refresh_schemes():
    """Per-bank and all-bank do the same refresh work; the co-design
    reschedules it.  Energy should differ only via the tRFC_pb/tRFC_ab
    packing (per-bank spends 16 x tRFC_pb vs 2 x 8-bank tRFC_ab)."""
    ab = api.run("WL-9", "all_bank", **FAST).energy.refresh_mj
    pb = api.run("WL-9", "per_bank", **FAST).energy.refresh_mj
    cd = api.run("WL-9", "codesign", **FAST).energy.refresh_mj
    assert pb == pytest.approx(cd, rel=0.1)
    assert ab > 0 and pb > 0


def test_higher_density_costs_more_refresh_energy():
    low = api.run("WL-9", "all_bank", density_gbit=16, **FAST)
    high = api.run("WL-9", "all_bank", density_gbit=32, **FAST)
    assert high.energy.refresh_mj > low.energy.refresh_mj


def test_memory_intensive_workload_costs_more_dynamic_energy():
    hot = api.run("WL-1", "all_bank", **FAST).energy
    cold = api.run("WL-2", "all_bank", **FAST).energy
    assert hot.activate_mj + hot.read_mj > cold.activate_mj + cold.read_mj
