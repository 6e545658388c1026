"""Benchmark characterization: the data a spec names its tasks with.

The paper classifies benchmarks purely by LLC MPKI (H > 10, 1 <= M <= 10,
L < 1; Table 2) and footprint (Section 5.4.1).  A
:class:`BenchmarkSpec` captures those plus the micro-characteristics the
interval core model needs (base CPI, MLP, row-buffer locality, write
fraction, access pattern).
:class:`~repro.workloads.generator.StatisticalWorkload` turns a spec into
the per-task access stream consumed by :class:`repro.cpu.core.Core`; it
lives with the simulation kernel, so resolving specs never loads it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.serialize import (
    CanonicalJSON,
    canonical_json,
    dataclass_from_dict,
    dataclass_to_dict,
    stored,
    validated,
)


class MpkiClass(enum.Enum):
    """Memory-intensity classes of Table 2."""

    HIGH = "H"
    MEDIUM = "M"
    LOW = "L"

    @staticmethod
    def of(mpki: float) -> "MpkiClass":
        if mpki > 10:
            return MpkiClass.HIGH
        if mpki >= 1:
            return MpkiClass.MEDIUM
        return MpkiClass.LOW


class AccessPattern(enum.Enum):
    SEQUENTIAL = "sequential"  # streaming walks over the footprint
    RANDOM = "random"  # pointer-chasing / irregular


@dataclass(frozen=True)
class BenchmarkSpec:
    """Workload model parameters for one benchmark.

    ``mpki`` is LLC read-misses per kilo-instruction; ``footprint_bytes``
    the resident set with reference inputs.  Footprints for mcf, bwaves,
    stream and GemsFDTD are from the paper (Section 5.4.1); the rest are
    representative published values.  Micro-characteristics (CPI, MLP,
    locality) are calibrated estimates — see DESIGN.md Section 3.
    """

    name: str
    mpki: float
    footprint_bytes: int
    base_cpi: float = 0.5
    mlp: int = 4
    row_locality: float = 0.6
    write_fraction: float = 0.25
    pattern: AccessPattern = AccessPattern.RANDOM
    suite: str = "spec2006"

    @property
    def mpki_class(self) -> MpkiClass:
        return MpkiClass.of(self.mpki)

    def validate(self) -> None:
        if self.mpki < 0:
            raise ConfigError(f"{self.name}: MPKI cannot be negative")
        if self.footprint_bytes <= 0:
            raise ConfigError(f"{self.name}: footprint must be positive")
        if self.base_cpi <= 0:
            raise ConfigError(f"{self.name}: base CPI must be positive")
        if self.mlp < 1:
            raise ConfigError(f"{self.name}: MLP must be >= 1")
        if not 0.0 <= self.row_locality <= 1.0:
            raise ConfigError(f"{self.name}: row locality must be in [0,1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError(f"{self.name}: write fraction must be in [0,1]")

    def instructions_per_miss(self) -> float:
        """Mean instructions between LLC misses."""
        if self.mpki == 0:
            return float("inf")
        return 1000.0 / self.mpki

    def to_dict(self) -> dict:
        return dataclass_to_dict(self)

    def canonical_json(self) -> CanonicalJSON:
        """Canonical JSON text of :meth:`to_dict`, encoded on the first
        call and stored on the instance: every spec naming this task
        splices it into its own text."""
        return stored(self, "_canonical_json", canonical_json)

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkSpec":
        data = dict(data)
        try:
            data["pattern"] = AccessPattern(data["pattern"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"BenchmarkSpec: bad access pattern ({exc})") from None
        spec = dataclass_from_dict(cls, data)
        validated(spec)
        return spec

    def __str__(self) -> str:
        return f"{self.name}({self.mpki_class.value})"
