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
        mc = self.controller
        trefi = self.timing.trefi_ab
        for channel in range(mc.org.channels):
            for rank in range(mc.org.ranks_per_channel):
                offset = rank * trefi // mc.org.ranks_per_channel
                self._schedule_rank(channel, rank, offset)
        self.engine.schedule(trefi * self.decision_intervals, self._decide)

    # -- mode adaptation ---------------------------------------------------------

    def _decide(self) -> None:
        now = self.engine.now
        bus = self.controller.bus_for_channel(0)
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

    def _schedule_rank(self, channel: int, rank: int, at: int) -> None:
        # Bound method + arg tuple (not a closure) so the queued event can
        # be captured as a checkpoint descriptor.
        self.engine.schedule(at, self._fire_rank, (channel, rank))

    def _fire_rank(self, key: tuple[int, int]) -> None:
        channel, rank = key
        mode = self._mode
        self.controller.refresh_rank(channel, rank, self._trfc())
        base_flat = self.controller.mapping.flat_bank_index(channel, rank, 0)
        units = 1.0 / mode.trefi_divisor
        for bank in range(self.controller.org.banks_per_rank):
            self.stats.record(base_flat + bank, row_units=units)
        self._schedule_rank(channel, rank, self._trefi())
