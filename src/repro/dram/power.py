"""DRAM energy estimation.

An event-energy model in the style of the Micron DDR3 power calculator:
each command class carries a representative energy, background power
accrues with wall-clock time, and refresh energy accrues with
refresh-busy time.  Defaults are representative DDR3-1600 x8-rank values;
they are configurable because the *relative* comparison across refresh
schemes (e.g. Elastic Refresh's motivation) is the point, not absolute
milli-joules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.controller import MemoryController
from repro.serialize import dataclass_from_dict, field_names


@dataclass(frozen=True)
class DramEnergyParams:
    """Per-event energies (nanojoules) and background power (milliwatts)."""

    activate_precharge_nj: float = 15.0  # one ACT+PRE pair
    read_burst_nj: float = 10.0
    write_burst_nj: float = 11.0
    refresh_mw: float = 250.0  # rank power while refresh-busy
    background_mw_per_rank: float = 95.0
    cpu_freq_ghz: float = 3.2

    def cycles_to_ns(self, cycles: int) -> float:
        return cycles / self.cpu_freq_ghz


@dataclass
class EnergyBreakdown:
    """Energy per component over one measured interval, in millijoules."""

    background_mj: float
    activate_mj: float
    read_mj: float
    write_mj: float
    refresh_mj: float
    elapsed_ns: float

    @property
    def total_mj(self) -> float:
        return (
            self.background_mj
            + self.activate_mj
            + self.read_mj
            + self.write_mj
            + self.refresh_mj
        )

    @property
    def refresh_fraction(self) -> float:
        total = self.total_mj
        return self.refresh_mj / total if total > 0 else 0.0

    @property
    def average_power_mw(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        # mJ / ns = 1e6 W = 1e9 mW.
        return self.total_mj * 1e9 / self.elapsed_ns

    def __str__(self) -> str:
        return (
            f"EnergyBreakdown(total={self.total_mj:.3f}mJ, "
            f"refresh={self.refresh_mj:.3f}mJ [{self.refresh_fraction:.1%}], "
            f"avg={self.average_power_mw:.0f}mW)"
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in field_names(EnergyBreakdown)}

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyBreakdown":
        return dataclass_from_dict(cls, data)


def estimate_energy(
    controller: MemoryController,
    elapsed_cycles: int,
    params: DramEnergyParams | None = None,
) -> EnergyBreakdown:
    """Estimate DRAM energy over *elapsed_cycles* from controller state.

    Activation/read/write counts come from per-bank stats; refresh-busy
    time from the banks' ``refresh_busy_cycles`` (rank-level refreshes are
    counted once per bank, matching per-bank current draw).
    """
    params = params or DramEnergyParams()
    activations = sum(b.stats.activations for b in controller.banks)
    reads = sum(b.stats.reads for b in controller.banks)
    writes = sum(b.stats.writes for b in controller.banks)
    refresh_cycles = sum(b.stats.refresh_busy_cycles for b in controller.banks)

    elapsed_ns = params.cycles_to_ns(elapsed_cycles)
    num_ranks = (
        controller.org.channels * controller.org.ranks_per_channel
    )
    banks_per_rank = controller.org.banks_per_rank

    background_mj = (
        params.background_mw_per_rank * num_ranks * elapsed_ns * 1e-9
    )
    activate_mj = params.activate_precharge_nj * activations * 1e-6
    read_mj = params.read_burst_nj * reads * 1e-6
    write_mj = params.write_burst_nj * writes * 1e-6
    # refresh_busy_cycles is per-bank; a rank-level refresh drives the rank
    # current for tRFC once, so divide by banks-per-rank.
    refresh_ns = params.cycles_to_ns(refresh_cycles) / banks_per_rank
    refresh_mj = params.refresh_mw * refresh_ns * 1e-9

    return EnergyBreakdown(
        background_mj=background_mj,
        activate_mj=activate_mj,
        read_mj=read_mj,
        write_mj=write_mj,
        refresh_mj=refresh_mj,
        elapsed_ns=elapsed_ns,
    )
