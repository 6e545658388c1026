"""Unit tests for DRAM configuration presets (Table 1 values)."""

import pytest

from repro.config.dram_configs import (
    DDR3_1600,
    DENSITIES,
    DensityConfig,
    DramOrganization,
    DramTimingSpec,
    FgrMode,
    density,
)
from repro.errors import ConfigError


class TestDramTimingSpec:
    def test_ddr3_defaults_match_table1(self):
        assert DDR3_1600.bus_mhz == 800.0
        assert DDR3_1600.tCL == 11
        assert DDR3_1600.tRC == DDR3_1600.tRAS + DDR3_1600.tRP

    def test_validate_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            DramTimingSpec(tCL=0).validate()

    def test_validate_rejects_tras_below_trcd(self):
        with pytest.raises(ConfigError):
            DramTimingSpec(tRAS=5, tRCD=11).validate()


class TestDensityConfig:
    def test_table1_trfc_values(self):
        assert density(16).trfc_ab_ns == 530.0
        assert density(24).trfc_ab_ns == 710.0
        assert density(32).trfc_ab_ns == 890.0
        assert density(8).trfc_ab_ns == 350.0

    def test_table1_rows_per_bank(self):
        assert density(16).rows_per_bank == 256 * 1024
        assert density(24).rows_per_bank == 384 * 1024
        assert density(32).rows_per_bank == 512 * 1024

    def test_per_bank_trfc_ratio(self):
        # tRFC_ab-to-tRFC_pb ratio = 2.3 (Table 1, from Chang et al.)
        for cfg in DENSITIES.values():
            assert cfg.trfc_pb_ns == pytest.approx(cfg.trfc_ab_ns / 2.3)

    def test_trfc_grows_with_density(self):
        values = [density(d).trfc_ab_ns for d in (8, 16, 24, 32)]
        assert values == sorted(values)

    def test_unknown_density_raises(self):
        with pytest.raises(ConfigError):
            density(12)

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            DensityConfig(density_gbit=0, trfc_ab_ns=100, rows_per_bank=1).validate()
        with pytest.raises(ConfigError):
            DensityConfig(density_gbit=8, trfc_ab_ns=-1, rows_per_bank=1).validate()


class TestFgrMode:
    def test_trefi_divisors(self):
        assert FgrMode.X1.trefi_divisor == 1
        assert FgrMode.X2.trefi_divisor == 2
        assert FgrMode.X4.trefi_divisor == 4

    def test_trfc_divisors_from_mukundan(self):
        # tRFC scales only by 1.35x/1.63x in 2x/4x modes (Section 6.3).
        assert FgrMode.X2.trfc_divisor == 1.35
        assert FgrMode.X4.trfc_divisor == 1.63

    def test_finer_modes_cost_more_total_refresh_time(self):
        # commands x tRFC grows: 2/1.35 > 1, 4/1.63 > 2/1.35.
        cost = {m: m.trefi_divisor / m.trfc_divisor for m in FgrMode}
        assert cost[FgrMode.X1] < cost[FgrMode.X2] < cost[FgrMode.X4]


class TestDramOrganization:
    def test_table1_defaults(self):
        org = DramOrganization()
        assert org.channels == 1
        assert org.ranks_per_channel == 2
        assert org.banks_per_rank == 8
        assert org.total_banks == 16
        assert org.row_size_bytes == 4096

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            DramOrganization(banks_per_rank=6).validate()

    def test_rejects_misaligned_row(self):
        with pytest.raises(ConfigError):
            DramOrganization(row_size_bytes=1000).validate()
