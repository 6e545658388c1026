"""Benchmark characterization and the statistical access-stream generator.

The paper classifies benchmarks purely by LLC MPKI (H > 10, 1 <= M <= 10,
L < 1; Table 2) and footprint (Section 5.4.1).  A
:class:`BenchmarkSpec` captures those plus the micro-characteristics the
interval core model needs (base CPI, MLP, row-buffer locality, write
fraction, access pattern).  :class:`StatisticalWorkload` turns a spec into
the per-task access stream consumed by :class:`repro.cpu.core.Core`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.serialize import dataclass_from_dict, dataclass_to_dict


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

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkSpec":
        data = dict(data)
        try:
            data["pattern"] = AccessPattern(data["pattern"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"BenchmarkSpec: bad access pattern ({exc})") from None
        spec = dataclass_from_dict(cls, data)
        spec.validate()
        return spec

    def __str__(self) -> str:
        return f"{self.name}({self.mpki_class.value})"


@dataclass
class MemAccess:
    """One compute-gap + LLC-miss pair produced by a workload model."""

    instructions: int
    gap_cycles: int
    address: Optional[int]  # None = pure-compute gap, no memory request
    writeback_address: Optional[int] = None


class StatisticalWorkload:
    """Generates a task's LLC-miss stream from its :class:`BenchmarkSpec`.

    * Misses arrive in **bursts** of up to ``mlp`` (out-of-order cores
      extract MLP from clustered misses): short fixed gaps inside a burst,
      an exponentially distributed long gap between bursts.  The mean over
      a whole burst equals ``1000 / MPKI`` instructions per miss, so the
      configured MPKI is preserved exactly in expectation.
    * With probability ``row_locality`` the next miss hits the same page
      (= same DRAM row) as the previous one at a new column; otherwise a
      new page is chosen — sequentially for streaming patterns, uniformly
      at random for irregular ones.
    * With probability ``write_fraction`` a dirty-victim writeback to a
      recently touched page accompanies the miss.

    A task with zero MPKI never misses; the core model handles the
    infinite gap by issuing pure-compute quanta.
    """

    #: Gap cap so a single event never skips more than ~one quantum.
    MAX_GAP_INSTRUCTIONS = 2_000_000
    #: Intra-burst gap as a fraction of the mean inter-miss gap.
    INTRA_BURST_FRACTION = 0.15

    def __init__(self, spec: BenchmarkSpec, mapping, line_bytes: int = 64):
        spec.validate()
        self.spec = spec
        self.mapping = mapping
        self.line_bytes = line_bytes
        self._columns = mapping.page_bytes // line_bytes
        self._seq_cursor = 0
        self._last_page_idx: Optional[int] = None
        self._recent_pages: list[int] = []
        self._fault_penalty = 0
        self._burst_left = 0
        mean = spec.instructions_per_miss()
        self._mean_instr = mean  # spec-derived constant; cached for next_access
        if mean == float("inf"):
            self._intra_instr = self._inter_mean = float("inf")
        else:
            burst = spec.mlp
            self._intra_instr = max(1, round(self.INTRA_BURST_FRACTION * mean))
            self._inter_mean = max(
                1.0, burst * mean - (burst - 1) * self._intra_instr
            )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def mlp(self) -> int:
        return self.spec.mlp

    def next_access(self, task) -> MemAccess:
        """The next (gap, miss) pair for *task*."""
        rng = task.rng
        spec = self.spec

        has_memory = task.vm is not None or bool(task.frames)
        mean_instr = self._mean_instr
        if mean_instr == float("inf") or not has_memory:
            instructions = self.MAX_GAP_INSTRUCTIONS
        elif self._burst_left > 0:
            # Inside a burst: short fixed gap.
            self._burst_left -= 1
            instructions = self._intra_instr
        else:
            # Start a new burst: long exponential gap, then mlp-1 short ones.
            self._burst_left = spec.mlp - 1
            instructions = min(
                self.MAX_GAP_INSTRUCTIONS,
                max(1, int(rng.expovariate(1.0 / self._inter_mean)) + 1),
            )
        gap_cycles = max(1, int(instructions * spec.base_cpi))

        if not has_memory or mean_instr == float("inf"):
            # Footprint not yet allocated (or zero MPKI): compute-only gap.
            return MemAccess(instructions, gap_cycles, address=None)
        self._fault_penalty = 0
        address = self._next_address(task, rng)
        writeback = None
        if self._recent_pages and rng.random() < spec.write_fraction:
            victim_page = rng.choice(self._recent_pages)
            writeback = self._resident_address(task, victim_page, rng)
        # Page-fault handling time (demand paging) extends the compute gap.
        gap_cycles += self._fault_penalty
        return MemAccess(instructions, gap_cycles, address, writeback)

    # -- address stream -----------------------------------------------------------

    def _page_count(self, task) -> int:
        if task.vm is not None:
            return task.vm.footprint_pages
        return len(task.frames)

    def _next_address(self, task, rng) -> int:
        if (
            self._last_page_idx is not None
            and rng.random() < self.spec.row_locality
        ):
            page_idx = self._last_page_idx
        elif self.spec.pattern is AccessPattern.SEQUENTIAL:
            page_idx = self._seq_cursor
            self._seq_cursor = (self._seq_cursor + 1) % self._page_count(task)
        else:
            page_idx = rng.randrange(self._page_count(task))
        self._last_page_idx = page_idx
        self._remember(page_idx)
        return self._address_in(task, page_idx, rng)

    def _address_in(self, task, page_idx: int, rng) -> int:
        if task.vm is not None:
            frame, penalty = task.vm.translate(page_idx)
            self._fault_penalty += penalty
        else:
            frame = task.frames[page_idx]
        column = rng.randrange(self._columns)
        return self.mapping.frame_offset_to_address(frame, column * self.line_bytes)

    def _resident_address(self, task, page_idx: int, rng):
        """Writeback target: only resident pages get written back."""
        if task.vm is not None:
            frame = task.vm.translate_resident(page_idx)
            if frame is None:
                return None
            column = rng.randrange(self._columns)
            return self.mapping.frame_offset_to_address(
                frame, column * self.line_bytes
            )
        return self._address_in(task, page_idx, rng)

    def _remember(self, page_idx: int) -> None:
        self._recent_pages.append(page_idx)
        if len(self._recent_pages) > 8:
            del self._recent_pages[0]

    # -- checkpoint/restore -----------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Stream cursor state; the spec-derived constants are rebuilt at
        construction and not captured."""
        return {
            "_seq_cursor": self._seq_cursor,
            "_last_page_idx": self._last_page_idx,
            "_recent_pages": list(self._recent_pages),
            "_fault_penalty": self._fault_penalty,
            "_burst_left": self._burst_left,
        }

    def restore_state(self, state: dict) -> None:
        self._seq_cursor = int(state["_seq_cursor"])
        last = state["_last_page_idx"]
        self._last_page_idx = None if last is None else int(last)
        self._recent_pages = [int(p) for p in state["_recent_pages"]]
        self._fault_penalty = int(state["_fault_penalty"])
        self._burst_left = int(state["_burst_left"])
