"""DRAM timing and organization presets (Table 1 of the paper).

Timing values are stored in their native units (memory-bus cycles for
JEDEC per-command parameters, nanoseconds/microseconds/milliseconds for
refresh parameters) and converted to CPU cycles by
:class:`repro.dram.timing.DramTiming` at simulation-config time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.serialize import dataclass_from_dict, dataclass_to_dict
from repro.units import KB


class FgrMode(enum.Enum):
    """DDR4 Fine Granularity Refresh modes (JEDEC DDR4, paper Section 6.3).

    In 2x/4x modes tREFI is divided by 2/4 but tRFC shrinks only by
    1.35x/1.63x (Mukundan et al., ISCA 2013), so finer modes issue more
    commands with disproportionately long refresh cycles.
    """

    X1 = 1
    X2 = 2
    X4 = 4

    @property
    def trefi_divisor(self) -> int:
        return self.value

    @property
    def trfc_divisor(self) -> float:
        return {FgrMode.X1: 1.0, FgrMode.X2: 1.35, FgrMode.X4: 1.63}[self]


@dataclass(frozen=True)
class DramTimingSpec:
    """Per-command DRAM timing in memory-bus cycles, plus bus frequency.

    Defaults correspond to DDR3-1600 (CL-11) as used in Table 1.
    """

    name: str = "DDR3-1600"
    bus_mhz: float = 800.0  # memory clock (data rate = 2x)
    tCL: int = 11  # CAS latency (read)
    tCWL: int = 8  # CAS write latency
    tRCD: int = 11  # RAS-to-CAS delay
    tRP: int = 11  # row precharge
    tRAS: int = 28  # row active time
    tBL: int = 4  # burst length on the bus (BL8 at DDR)
    tCCD: int = 4  # CAS-to-CAS delay
    tRTP: int = 6  # read-to-precharge
    tWR: int = 12  # write recovery
    tWTR: int = 6  # write-to-read turnaround
    tRRD: int = 5  # activate-to-activate, same rank
    tFAW: int = 24  # four-activate window
    tRTRS: int = 2  # rank-to-rank switch

    @property
    def tRC(self) -> int:
        """Activate-to-activate on the same bank."""
        return self.tRAS + self.tRP

    def to_dict(self) -> dict:
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DramTimingSpec":
        return dataclass_from_dict(cls, data)

    def validate(self) -> None:
        for name in (
            "tCL",
            "tCWL",
            "tRCD",
            "tRP",
            "tRAS",
            "tBL",
            "tCCD",
            "tRTP",
            "tWR",
            "tWTR",
            "tRRD",
            "tFAW",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{self.name}: {name} must be positive")
        if self.tRAS < self.tRCD:
            raise ConfigError(f"{self.name}: tRAS must cover tRCD")


DDR3_1600 = DramTimingSpec(name="DDR3-1600")
# DDR4-1600 shares per-command timing at this speed grade; the difference
# exercised by the paper is the FGR refresh modes.
DDR4_1600 = DramTimingSpec(name="DDR4-1600")


@dataclass(frozen=True)
class DensityConfig:
    """Per-device-density refresh parameters (Table 1, "Refresh Config").

    ``trfc_ab_ns`` is the all-bank (rank-level) refresh cycle time; the
    per-bank refresh cycle time is ``trfc_ab_ns / trfc_ab_to_pb_ratio``
    (ratio 2.3, from Chang et al. HPCA 2014, as adopted by the paper).
    """

    density_gbit: int
    trfc_ab_ns: float
    rows_per_bank: int
    trefi_ab_us: float = 7.8
    trfc_ab_to_pb_ratio: float = 2.3

    @property
    def trfc_pb_ns(self) -> float:
        return self.trfc_ab_ns / self.trfc_ab_to_pb_ratio

    def validate(self) -> None:
        if self.density_gbit <= 0:
            raise ConfigError("density must be positive")
        if self.trfc_ab_ns <= 0 or self.trefi_ab_us <= 0:
            raise ConfigError("refresh timings must be positive")
        if self.rows_per_bank <= 0:
            raise ConfigError("rows_per_bank must be positive")


#: Refresh parameters per chip density.  16/24/32 Gb values are straight
#: from Table 1; 8 Gb (used by Figures 3-5) follows the same progression
#: (tRFC=350ns per the paper's Section 3.1, 128K rows/bank).
DENSITIES: dict[int, DensityConfig] = {
    8: DensityConfig(density_gbit=8, trfc_ab_ns=350.0, rows_per_bank=128 * 1024),
    16: DensityConfig(density_gbit=16, trfc_ab_ns=530.0, rows_per_bank=256 * 1024),
    24: DensityConfig(density_gbit=24, trfc_ab_ns=710.0, rows_per_bank=384 * 1024),
    32: DensityConfig(density_gbit=32, trfc_ab_ns=890.0, rows_per_bank=512 * 1024),
}


def density(gbit: int) -> DensityConfig:
    """Look up the :class:`DensityConfig` for a chip density in Gbit."""
    try:
        return DENSITIES[gbit]
    except KeyError:
        raise ConfigError(
            f"unknown density {gbit}Gb; known: {sorted(DENSITIES)}"
        ) from None


@dataclass(frozen=True)
class DramOrganization:
    """Channel/rank/bank geometry (Table 1: 1 channel, 2 ranks/DIMM,
    8 banks/rank, 4KB rows)."""

    channels: int = 1
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    row_size_bytes: int = 4 * KB
    cacheline_bytes: int = 64
    #: > 1 enables SALP-style subarray-granularity refresh (the Section 7
    #: extension): a per-bank refresh blocks only one subarray.
    subarrays_per_bank: int = 1

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def columns_per_row(self) -> int:
        return self.row_size_bytes // self.cacheline_bytes

    def to_dict(self) -> dict:
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DramOrganization":
        return dataclass_from_dict(cls, data)

    def validate(self) -> None:
        if min(self.channels, self.ranks_per_channel, self.banks_per_rank) <= 0:
            raise ConfigError("geometry fields must be positive")
        if self.row_size_bytes % self.cacheline_bytes != 0:
            raise ConfigError("row size must be a multiple of the cache line")
        for name in ("channels", "ranks_per_channel", "banks_per_rank"):
            value = getattr(self, name)
            if value & (value - 1):
                raise ConfigError(f"{name} must be a power of two, got {value}")
        if self.subarrays_per_bank < 1:
            raise ConfigError("subarrays_per_bank must be >= 1")
