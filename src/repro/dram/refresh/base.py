"""Refresh scheduler interface and shared bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.state import Stateful, record
from repro.telemetry.hub import Telemetry
from repro.telemetry.stats import StatsBase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import Engine
    from repro.dram.controller import MemoryController
    from repro.dram.timing import DramTiming


@dataclass
class RefreshStats(StatsBase):
    """Counters shared by all refresh schedulers."""

    commands_issued: int = 0
    rows_refreshed_units: float = 0.0
    per_bank_commands: dict[int, int] = field(default_factory=dict)

    def record(self, flat_bank: int, row_units: float = 1.0) -> None:
        self.commands_issued += 1
        self.rows_refreshed_units += row_units
        self.per_bank_commands[flat_bank] = (
            self.per_bank_commands.get(flat_bank, 0) + 1
        )


class RefreshScheduler(Stateful):
    """Base class: a refresh scheduler is attached to a controller and
    drives itself with engine events.

    Subclasses implement :meth:`start`.  Schedulers that make their schedule
    *predictable by the OS* (the paper's same-bank schedule) additionally
    implement :meth:`stretch_bank_at`, returning which flat bank index is
    being refreshed during the stretch containing a given time; others
    return ``None`` (the OS cannot co-schedule against them).

    Subclass ``STATE`` tables extend this one; the wiring references are
    re-attached by the system before any restore.
    """

    name = "base"

    STATE = (("stats", record(RefreshStats)),)
    DERIVED = ("controller", "engine", "timing", "telemetry")

    def __init__(self):
        self.controller: Optional["MemoryController"] = None
        self.engine: Optional["Engine"] = None
        self.timing: Optional["DramTiming"] = None
        self.stats = RefreshStats()
        self.telemetry = Telemetry()

    def attach(
        self,
        controller: "MemoryController",
        engine: "Engine",
        timing: "DramTiming",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        """Wire the scheduler to its controller/engine; call before start."""
        self.controller = controller
        self.engine = engine
        self.timing = timing
        if telemetry is not None:
            self.telemetry = telemetry

    def start(self) -> None:
        """Schedule the first refresh event.  Subclasses override.

        Must be callable with ``engine.now > 0``: a checkpoint restored
        under a *different* refresh policy drops the snapshot's refresh
        events and starts the new policy mid-run instead.
        """
        raise NotImplementedError

    # -- rank-level refresh (all_bank, adaptive, elastic, pausing) ------------

    def _rank_stagger(self) -> Iterator[tuple[int, int, int]]:
        """``(channel, rank, offset)`` of every rank in flat order, rank *r*
        of a channel starting ``r * tREFI_ab / ranks`` cycles from now
        (Figure 2a)."""
        org = self.controller.org
        trefi = self.timing.trefi_ab
        ranks = org.ranks_per_channel
        for channel in range(org.channels):
            for rank in range(ranks):
                yield channel, rank, rank * trefi // ranks

    def _rank_banks(self, channel: int, rank: int) -> range:
        """Flat indices of the banks of one rank."""
        base = self.controller.mapping.flat_bank_index(channel, rank, 0)
        return range(base, base + self.controller.org.banks_per_rank)

    def _record_rank(self, banks: range, row_units: float = 1.0) -> None:
        """Count one row group refreshed in every bank of *banks*."""
        record = self.stats.record
        for flat in banks:
            record(flat, row_units)

    def _rank_busy(self, banks: range) -> bool:
        """True when any bank of *banks* has a queued request; the scan
        stops at the first such bank."""
        queued = self.controller.queued_requests_per_bank()
        for flat in banks:
            if queued[flat]:
                return True
        return False

    # -- OS-visible schedule (co-design hardware/software interface) ---------

    def stretch_bank_at(self, time: int) -> Optional[int]:
        """Flat bank index refresh-busy during the stretch containing *time*,
        or ``None`` when the schedule is not stretch-structured."""
        return None

    def is_predictable(self) -> bool:
        """True when the OS can learn the refresh target for a quantum."""
        return self.stretch_bank_at(0) is not None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(commands={self.stats.commands_issued})"
