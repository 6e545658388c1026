"""Adaptive Refresh (AR) — Mukundan et al., ISCA 2013 (paper Section 6.5).

AR is an all-bank DDR4 technique that dynamically switches between the 1x
and 4x Fine Granularity Refresh modes by monitoring channel utilization at
runtime: under high memory activity it uses 4x (shorter tRFC blocks demand
requests for less time per command); under low activity it uses 1x (fewer,
longer commands — cheaper in total because tRFC does not scale down
linearly with the per-command row count).

Refresh *work* bookkeeping: a 1x command retires one row-group unit, a 4x
command a quarter unit, so each rank accumulates ``refreshes_per_bank``
units per retention window regardless of the mode mix.
"""

from __future__ import annotations

from repro.config.dram_configs import FgrMode
from repro.core.state import INT, member
from repro.dram.refresh.base import RefreshScheduler


class AdaptiveRefresh(RefreshScheduler):
    name = "adaptive"

    #: Bus utilization (over the last decision window) above which the
    #: scheduler switches to the 4x mode.
    utilization_threshold = 0.35
    #: Decision window length, in 1x tREFI intervals.
    decision_intervals = 8

    STATE = (
        ("_mode", member(FgrMode)),
        ("_last_busy_cycles", INT),
        ("_last_decision_time", INT),
        ("mode_switches", INT),
    )

    def __init__(self):
        super().__init__()
        self._mode = FgrMode.X1
        self._last_busy_cycles = 0
        self._last_decision_time = 0
        self.mode_switches = 0

    def start(self) -> None:
        for channel, rank, offset in self._rank_stagger():
            # Bound method + arg tuple (not a closure) so the queued event
            # can be captured as a checkpoint descriptor.
            self.engine.schedule(offset, self._fire_rank, (channel, rank))
        self.engine.schedule(
            self.timing.trefi_ab * self.decision_intervals, self._decide
        )

    # -- mode adaptation ---------------------------------------------------------

    def _decide(self) -> None:
        now = self.engine.now
        bus = self.controller.buses[0]
        elapsed = max(1, now - self._last_decision_time)
        busy = bus.busy_cycles - self._last_busy_cycles
        utilization = busy / elapsed
        new_mode = (
            FgrMode.X4 if utilization >= self.utilization_threshold else FgrMode.X1
        )
        if new_mode is not self._mode:
            self.mode_switches += 1
            self._mode = new_mode
        self._last_busy_cycles = bus.busy_cycles
        self._last_decision_time = now
        self.engine.schedule(
            self.timing.trefi_ab * self.decision_intervals, self._decide
        )

    # -- refresh issue -------------------------------------------------------------

    def _trefi(self) -> int:
        return self.timing.trefi_ab // self._mode.trefi_divisor

    def _trfc(self) -> int:
        return max(1, round(self.timing.trfc_ab / self._mode.trfc_divisor))

    def _fire_rank(self, key: tuple[int, int]) -> None:
        channel, rank = key
        self.controller.refresh_rank(channel, rank, self._trfc())
        units = 1.0 / self._mode.trefi_divisor
        self._record_rank(self._rank_banks(channel, rank), units)
        self.engine.schedule(self._trefi(), self._fire_rank, key)
