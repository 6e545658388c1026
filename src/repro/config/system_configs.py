"""Full-system configuration (Table 1) and simulation scaling knobs."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config.dram_configs import (
    DensityConfig,
    DramOrganization,
    DramTimingSpec,
    DDR3_1600,
    FgrMode,
    density,
)
from repro.errors import ConfigError
from repro.serialize import content_hash, dataclass_from_dict, dataclass_to_dict
from repro.units import KB, MB, ms


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table 1: 2 cores @ 3.2GHz, 8-wide,
    128-entry ROB).

    The interval core model consumes ``base_cpi`` (CPI in the absence of
    LLC misses) and a per-workload MLP bound; the ROB size caps MLP.
    """

    num_cores: int = 2
    freq_mhz: float = 3200.0
    issue_width: int = 8
    rob_entries: int = 128

    def validate(self) -> None:
        if self.num_cores <= 0 or self.freq_mhz <= 0:
            raise ConfigError("core count and frequency must be positive")

    def to_dict(self) -> dict:
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CoreConfig":
        return dataclass_from_dict(cls, data)


@dataclass(frozen=True)
class CacheConfig:
    """Cache hierarchy parameters (Table 1)."""

    l1_size_bytes: int = 32 * KB
    l1_assoc: int = 4
    l1_hit_cycles: int = 2
    l2_size_per_core_bytes: int = 1 * MB
    l2_assoc: int = 16
    l2_hit_cycles: int = 20
    line_bytes: int = 64

    def validate(self) -> None:
        for name in ("l1_size_bytes", "l2_size_per_core_bytes", "line_bytes"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CacheConfig":
        return dataclass_from_dict(cls, data)


@dataclass(frozen=True)
class OsConfig:
    """OS parameters: scheduler quantum and allocator mode.

    ``quantum_ps`` of ``None`` means "derive from the refresh schedule":
    the co-design aligns the quantum with the per-bank refresh stretch
    (tREFW / total banks — 4 ms for 64 ms retention and 16 banks, matching
    the CFS time slices the paper observed).

    ``eta_thresh`` is Algorithm 3's fairness valve: how many vruntime-order
    candidates the refresh-aware pick may skip before falling back to the
    leftmost task.  ``None`` (default) scans the whole runqueue — the
    paper's normal operation; 1 disables refresh awareness, 2-3 degrade it
    gracefully (Section 5.4).
    """

    quantum_ps: int | None = None
    eta_thresh: int | None = None
    page_bytes: int = 4 * KB
    #: Demand paging: allocate pages on first touch instead of up front;
    #: fault penalties are charged as extra compute cycles.
    #: Run the CFS load balancer (bank-aware under refresh-aware
    #: scheduling so migrations preserve per-core stretch coverage).
    load_balance: bool = False
    load_balance_interval_quanta: int = 4
    demand_paging: bool = False
    #: Warm start: prefault the footprint at build time (the paper
    #: fast-forwards past initialization), so measured faults are capacity
    #: evictions only.  False = cold start, first touches fault.
    prefault: bool = True
    minor_fault_cycles: int = 2_000
    major_fault_cycles: int = 100_000

    def validate(self) -> None:
        if self.quantum_ps is not None and self.quantum_ps <= 0:
            raise ConfigError("quantum must be positive")
        if self.eta_thresh is not None and self.eta_thresh < 1:
            raise ConfigError("eta_thresh must be >= 1")

    def to_dict(self) -> dict:
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OsConfig":
        return dataclass_from_dict(cls, data)


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a simulated system.

    Scaling knobs (see DESIGN.md Section 3):

    ``refresh_scale``
        Divides the retention window tREFW *and* rows-per-bank by the same
        factor, keeping tREFI/tRFC/per-command timing at real values.  All
        refresh overhead *fractions* are preserved; wall-clock simulation
        cost drops by the same factor.  1 = paper-scale.
    ``capacity_scale``
        Divides bank capacity and task footprints by the same factor,
        preserving footprint/capacity ratios for the allocator.
    """

    cores: CoreConfig = field(default_factory=CoreConfig)
    caches: CacheConfig = field(default_factory=CacheConfig)
    os: OsConfig = field(default_factory=OsConfig)
    dram_timing: DramTimingSpec = DDR3_1600
    organization: DramOrganization = field(default_factory=DramOrganization)
    density_gbit: int = 32
    trefw_ps: int = ms(64)
    fgr_mode: FgrMode = FgrMode.X1
    refresh_scale: int = 256
    capacity_scale: int = 1024
    read_queue_depth: int = 64
    write_queue_depth: int = 64
    write_drain_low: int = 32
    write_drain_high: int = 54
    row_policy: str = "open"  # Table 1: open-row; "closed" = auto-precharge
    address_layout: str = "interleaved"  # see repro.dram.address.LAYOUTS
    seed: int = 1

    @property
    def density_config(self) -> DensityConfig:
        return density(self.density_gbit)

    @property
    def trefw_sim_ps(self) -> int:
        """Scaled retention window used by the simulation."""
        return self.trefw_ps // self.refresh_scale

    @property
    def rows_per_bank_sim(self) -> int:
        """Scaled number of rows per bank used by the simulation."""
        return max(1, self.density_config.rows_per_bank // self.refresh_scale)

    @property
    def bank_capacity_bytes(self) -> int:
        """Simulated per-bank capacity after ``capacity_scale``.

        Real capacity is rows_per_bank * row_size; both scaling knobs
        shrink it (refresh_scale shrinks rows, capacity_scale shrinks the
        modelled footprints to match).
        """
        real = self.density_config.rows_per_bank * self.organization.row_size_bytes
        return max(self.os.page_bytes, real // self.capacity_scale)

    def scale_footprint(self, footprint_bytes: int) -> int:
        """Scale a real benchmark footprint into simulated bytes."""
        return max(self.os.page_bytes, footprint_bytes // self.capacity_scale)

    @property
    def quantum_ps(self) -> int:
        """Scheduler quantum: explicit, or tREFW_sim / total_banks."""
        if self.os.quantum_ps is not None:
            return self.os.quantum_ps
        return self.trefw_sim_ps // self.organization.total_banks

    def with_(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        try:
            return replace(self, **kwargs)
        except TypeError as exc:
            raise ConfigError(f"invalid config override: {exc}") from None

    def to_dict(self) -> dict:
        """Canonical JSON-able view (inverse of :meth:`from_dict`)."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Rebuild a validated config from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"SystemConfig: expected a dict, got {type(data).__name__}"
            )
        data = dict(data)
        try:
            data["cores"] = CoreConfig.from_dict(data.pop("cores"))
            data["caches"] = CacheConfig.from_dict(data.pop("caches"))
            data["os"] = OsConfig.from_dict(data.pop("os"))
            data["dram_timing"] = DramTimingSpec.from_dict(data.pop("dram_timing"))
            data["organization"] = DramOrganization.from_dict(data.pop("organization"))
            data["fgr_mode"] = FgrMode(data.pop("fgr_mode"))
        except KeyError as exc:
            raise ConfigError(f"SystemConfig: missing field {exc}") from None
        config = dataclass_from_dict(cls, data)
        config.validate()
        return config

    def content_hash(self) -> str:
        """Stable content hash over every resolved field."""
        return content_hash(self)

    def validate(self) -> None:
        self.cores.validate()
        self.caches.validate()
        self.os.validate()
        self.dram_timing.validate()
        self.organization.validate()
        self.density_config.validate()
        if self.refresh_scale < 1 or self.capacity_scale < 1:
            raise ConfigError("scale factors must be >= 1")
        if self.trefw_ps <= 0:
            raise ConfigError("tREFW must be positive")
        if not 0 < self.write_drain_low < self.write_drain_high <= self.write_queue_depth:
            raise ConfigError("write drain watermarks must satisfy 0 < low < high <= depth")
        if self.row_policy not in ("open", "closed"):
            raise ConfigError(f"row_policy must be 'open' or 'closed', got {self.row_policy!r}")
        from repro.dram.address import LAYOUTS

        if self.address_layout not in LAYOUTS:
            raise ConfigError(
                f"unknown address_layout {self.address_layout!r}; "
                f"known: {sorted(LAYOUTS)}"
            )


def default_system_config(**overrides) -> SystemConfig:
    """The paper's default evaluated configuration (Table 1), with
    simulation scaling applied.  Pass keyword overrides for any field."""
    try:
        config = SystemConfig(**overrides)
    except TypeError as exc:
        raise ConfigError(f"invalid config override: {exc}") from None
    config.validate()
    return config
