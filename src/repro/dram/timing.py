"""DRAM timing converted to integer CPU cycles.

:class:`DramTiming` is the single object the hot path consults: every JEDEC
parameter and every refresh parameter, pre-converted to the CPU clock so the
controller only compares integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.dram_configs import DensityConfig, DramTimingSpec, FgrMode
from repro.config.system_configs import SystemConfig
from repro.errors import ConfigError
from repro.units import ClockDomain, ns, us


@dataclass(frozen=True)
class DramTiming:
    """All DRAM timing in CPU cycles.

    Built via :meth:`from_config`; refresh parameters reflect both the chip
    density and the configured FGR mode and refresh scaling.
    """

    cpu_per_mem_cycle: int
    tCL: int
    tCWL: int
    tRCD: int
    tRP: int
    tRAS: int
    tBL: int
    tCCD: int
    tRTP: int
    tWR: int
    tWTR: int
    tRRD: int
    tFAW: int
    tRTRS: int
    # refresh, already scaled:
    trefw: int  # retention window (scaled)
    trefi_ab: int  # all-bank (per-rank) refresh command interval
    trfc_ab: int  # all-bank refresh cycle time
    trfc_pb: int  # per-bank refresh cycle time
    refreshes_per_bank: int  # commands needed per bank per (scaled) window
    total_banks: int

    @property
    def tRC(self) -> int:
        return self.tRAS + self.tRP

    @property
    def trefi_pb(self) -> int:
        """Global per-bank refresh command interval.

        One per-bank command is issued somewhere every tREFI_pb; each of the
        ``total_banks`` banks therefore receives ``refreshes_per_bank``
        commands per retention window (paper Section 5.1: with 16 banks and
        64 ms retention a bank's rows complete within a 4 ms stretch).
        """
        return self.trefw // (self.total_banks * self.refreshes_per_bank)

    @property
    def refresh_stretch(self) -> int:
        """Length of one bank's contiguous refresh stretch under the
        proposed same-bank schedule: tREFW / total_banks."""
        return self.trefw // self.total_banks

    @staticmethod
    def from_config(config: SystemConfig) -> "DramTiming":
        """Derive CPU-cycle timing from a :class:`SystemConfig`."""
        spec: DramTimingSpec = config.dram_timing
        dens: DensityConfig = config.density_config
        spec.validate()
        dens.validate()

        cpu = ClockDomain(config.cores.freq_mhz)
        ratio = config.cores.freq_mhz / spec.bus_mhz
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                "CPU frequency must be an integer multiple of the memory bus "
                f"frequency (got {config.cores.freq_mhz}/{spec.bus_mhz})"
            )
        per_mem = int(round(ratio))

        def mem_cycles(n: int) -> int:
            return n * per_mem

        mode: FgrMode = config.fgr_mode
        # The JEDEC tREFI is specified for the nominal 64ms retention
        # window (< 85C); above 85C the window halves and commands must be
        # issued twice as often (same rows per command, same tRFC).
        from repro.units import ms as _ms

        retention_ratio = config.trefw_ps / _ms(64)
        trefi_ab_ps = max(
            1, round(us(dens.trefi_ab_us) * retention_ratio) // mode.trefi_divisor
        )
        trfc_ab_ps = ns(dens.trfc_ab_ns / mode.trfc_divisor)
        trfc_pb_ps = ns(dens.trfc_pb_ns)

        trefw = cpu.cycles(config.trefw_sim_ps)
        trefi_ab = cpu.cycles(trefi_ab_ps)
        trfc_ab = cpu.cycles(trfc_ab_ps)
        trfc_pb = cpu.cycles(trfc_pb_ps)

        # Commands per rank per retention window; rows-per-command follows.
        refreshes_per_bank = max(1, config.trefw_sim_ps // trefi_ab_ps)
        total_banks = config.organization.total_banks

        if trfc_ab >= trefi_ab:
            raise ConfigError(
                f"tRFC_ab ({trfc_ab}) must be smaller than tREFI_ab ({trefi_ab})"
            )

        return DramTiming(
            cpu_per_mem_cycle=per_mem,
            tCL=mem_cycles(spec.tCL),
            tCWL=mem_cycles(spec.tCWL),
            tRCD=mem_cycles(spec.tRCD),
            tRP=mem_cycles(spec.tRP),
            tRAS=mem_cycles(spec.tRAS),
            tBL=mem_cycles(spec.tBL),
            tCCD=mem_cycles(spec.tCCD),
            tRTP=mem_cycles(spec.tRTP),
            tWR=mem_cycles(spec.tWR),
            tWTR=mem_cycles(spec.tWTR),
            tRRD=mem_cycles(spec.tRRD),
            tFAW=mem_cycles(spec.tFAW),
            tRTRS=mem_cycles(spec.tRTRS),
            trefw=trefw,
            trefi_ab=trefi_ab,
            trfc_ab=trfc_ab,
            trfc_pb=trfc_pb,
            refreshes_per_bank=refreshes_per_bank,
            total_banks=total_banks,
        )
