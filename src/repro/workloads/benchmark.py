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
from typing import NamedTuple, Optional

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


class MemAccess(NamedTuple):
    """One compute-gap + LLC-miss pair produced by a workload model.

    A NamedTuple for the same reason as
    :class:`~repro.dram.address.DramCoordinate`: the core consumes one
    per miss, and a tuple is cheap to build and to unpack.
    """

    instructions: int
    gap_cycles: int
    address: Optional[int]  # None = pure-compute gap, no memory request
    writeback_address: Optional[int] = None


#: Builds a MemAccess from one tuple, bound once (as ``_coord_make`` is
#: for DramCoordinate).
_access_make = MemAccess._make


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
        #: Max outstanding misses; the core reads it once per issue check.
        self.mlp = spec.mlp
        self.mapping = mapping
        self.line_bytes = line_bytes
        self._page_bytes = mapping.page_bytes
        self._columns = mapping.page_bytes // line_bytes
        self._column_bits = self._columns.bit_length()
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

    def next_access(self, task) -> MemAccess:
        """The next (gap, miss) pair for *task*.

        One method on purpose: it runs once per LLC miss.  Page, column
        and victim indices are drawn with :class:`random.Random`'s own
        bounded-int loop (``k = n.bit_length()``, redraw ``getrandbits(k)``
        while ``>= n``), which consumes exactly the bits ``randrange(n)``
        and ``choice(seq)`` would, so the stream is the one those calls
        produce.  ``tests/property/test_workload_reference.py`` checks it
        against the unfused generator.
        """
        rng = task.rng
        spec = self.spec
        vm = task.vm
        frames = task.frames
        if self._mean_instr == float("inf") or (vm is None and not frames):
            # Zero MPKI, or footprint not yet allocated: compute-only gap.
            instructions = self.MAX_GAP_INSTRUCTIONS
            return _access_make(
                (instructions, max(1, int(instructions * spec.base_cpi)), None, None)
            )
        if self._burst_left > 0:
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
        getrandbits = rng.getrandbits

        # Page: the previous one again (same row), else the next or a
        # uniformly random page of the footprint.
        page_idx = self._last_page_idx
        if page_idx is None or rng.random() >= spec.row_locality:
            pages = len(frames) if vm is None else vm.footprint_pages
            if spec.pattern is AccessPattern.SEQUENTIAL:
                page_idx = self._seq_cursor
                self._seq_cursor = (page_idx + 1) % pages
            else:
                bits = pages.bit_length()
                page_idx = getrandbits(bits)
                while page_idx >= pages:
                    page_idx = getrandbits(bits)
            self._last_page_idx = page_idx
        recent = self._recent_pages
        recent.append(page_idx)
        if len(recent) > 8:
            del recent[0]

        columns = self._columns
        column_bits = self._column_bits
        if vm is None:
            frame = frames[page_idx]
            penalty = 0
        else:
            # Page-fault handling time (demand paging) extends the gap.
            frame, penalty = vm.translate(page_idx)
        self._fault_penalty = penalty
        column = getrandbits(column_bits)
        while column >= columns:
            column = getrandbits(column_bits)
        address = frame * self._page_bytes + column * self.line_bytes

        # Dirty-victim writeback to a recently touched page; under demand
        # paging only a resident victim is written back.
        writeback = None
        if rng.random() < spec.write_fraction:
            count = len(recent)
            bits = count.bit_length()
            victim = getrandbits(bits)
            while victim >= count:
                victim = getrandbits(bits)
            victim = recent[victim]
            frame = frames[victim] if vm is None else vm.translate_resident(victim)
            if frame is not None:
                column = getrandbits(column_bits)
                while column >= columns:
                    column = getrandbits(column_bits)
                writeback = frame * self._page_bytes + column * self.line_bytes
        return _access_make((instructions, gap_cycles + penalty, address, writeback))

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
