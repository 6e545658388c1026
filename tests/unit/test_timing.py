"""Unit tests for DramTiming (CPU-cycle conversion and refresh derivation)."""

import pytest

from repro.config.dram_configs import FgrMode
from repro.config.system_configs import default_system_config
from repro.dram.timing import DramTiming
from repro.errors import ConfigError


def make(**overrides):
    return DramTiming.from_config(default_system_config(**overrides))


def test_cpu_per_mem_cycle_ratio():
    timing = make()
    assert timing.cpu_per_mem_cycle == 4  # 3.2GHz / 800MHz


def test_per_command_timing_in_cpu_cycles():
    timing = make()
    assert timing.tCL == 44  # 11 mem cycles x 4
    assert timing.tRCD == 44
    assert timing.tRP == 44
    assert timing.tBL == 16
    assert timing.tRC == timing.tRAS + timing.tRP


def test_trfc_values_32gb():
    timing = make(refresh_scale=1)
    # 890ns at 3.2GHz = 2848 cycles.
    assert timing.trfc_ab == 2848
    # per-bank = 890/2.3 = 386.96ns -> 1239 cycles (ceil).
    assert timing.trfc_pb == pytest.approx(2848 / 2.3, abs=4)


def test_trefi_and_window_unscaled():
    timing = make(refresh_scale=1)
    assert timing.trefi_ab == 24960  # 7.8us x 3200 cycles/us
    assert timing.trefw == 204_800_000  # 64ms at 3.2GHz
    assert timing.refreshes_per_bank == int(64e6 // 7.8e3)


def test_refresh_scaling_preserves_ratios():
    full = make(refresh_scale=1)
    scaled = make(refresh_scale=256)
    # Per-command values identical.
    assert scaled.trfc_ab == full.trfc_ab
    assert scaled.trefi_ab == full.trefi_ab
    # Window and command count shrink together.
    assert scaled.trefw == pytest.approx(full.trefw / 256, rel=1e-3)
    assert scaled.refreshes_per_bank == pytest.approx(
        full.refreshes_per_bank / 256, abs=1
    )
    # Refresh duty fraction preserved.
    full_duty = full.trfc_ab / full.trefi_ab
    scaled_duty = scaled.trfc_ab / scaled.trefi_ab
    assert scaled_duty == full_duty


def test_trefi_pb_covers_all_banks_in_window():
    timing = make(refresh_scale=256)
    per_window = timing.total_banks * timing.refreshes_per_bank
    assert timing.trefi_pb * per_window <= timing.trefw
    assert timing.trefi_pb * per_window >= timing.trefw * 0.95


def test_refresh_stretch_is_window_over_banks():
    timing = make(refresh_scale=1)
    # 64ms / 16 banks = 4ms stretch (Section 5.1).
    assert timing.refresh_stretch == timing.trefw // 16


def test_fgr_modes_scale_trefi_and_trfc():
    x1 = make(refresh_scale=1, fgr_mode=FgrMode.X1)
    x2 = make(refresh_scale=1, fgr_mode=FgrMode.X2)
    x4 = make(refresh_scale=1, fgr_mode=FgrMode.X4)
    assert x2.trefi_ab == x1.trefi_ab // 2
    assert x4.trefi_ab == x1.trefi_ab // 4
    assert x2.trfc_ab == pytest.approx(x1.trfc_ab / 1.35, rel=0.01)
    assert x4.trfc_ab == pytest.approx(x1.trfc_ab / 1.63, rel=0.01)


def test_rejects_non_integer_clock_ratio():
    from repro.config.system_configs import CoreConfig

    with pytest.raises(ConfigError):
        make(cores=CoreConfig(freq_mhz=3000.0))


def test_rejects_trfc_longer_than_trefi():
    # An absurd refresh config must be caught.
    from repro.config.dram_configs import DensityConfig, DENSITIES

    bad = DensityConfig(density_gbit=32, trfc_ab_ns=9000.0, rows_per_bank=512 * 1024)
    DENSITIES[99] = bad
    try:
        with pytest.raises(ConfigError):
            make(density_gbit=99)
    finally:
        del DENSITIES[99]
