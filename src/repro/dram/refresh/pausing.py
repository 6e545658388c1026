"""Refresh Pausing — Nair et al., HPCA 2013 (paper Section 7).

An all-bank refresh whose tRFC is split into segments (refresh "pause
points"); between segments the controller checks for pending demand
requests to the rank and, if any exist, pauses the remaining refresh work
until the rank drains or the deadline forces completion (the whole
command must finish before the next tREFI obligation).

The paper notes this needs vendor-specific knowledge of the internal
refresh sequence; as a *model* it upper-bounds what pausing can buy.
"""

from __future__ import annotations

from repro.core.state import INT
from repro.dram.refresh.base import RefreshScheduler


class RefreshPausing(RefreshScheduler):
    name = "pausing"

    #: tRFC is divided into this many pausable segments.
    SEGMENTS = 4
    #: How often a paused refresh re-checks the rank, as a fraction of the
    #: segment length.
    RECHECK_DIVISOR = 2

    STATE = (("pauses", INT), ("forced_completions", INT))

    def __init__(self):
        super().__init__()
        self.pauses = 0
        self.forced_completions = 0

    def start(self) -> None:
        for channel, rank, offset in self._rank_stagger():
            self.engine.schedule(offset, self._begin_command, (channel, rank))

    def _begin_command(self, key: tuple[int, int]) -> None:
        # Bound method + arg tuple (not a closure) so the queued event can
        # be captured as a checkpoint descriptor.
        channel, rank = key
        deadline = self.engine.now + self.timing.trefi_ab
        self._run_segments((channel, rank, self.SEGMENTS, deadline))
        self.engine.schedule(self.timing.trefi_ab, self._begin_command, key)

    def _run_segments(self, ctx: tuple[int, int, int, int]) -> None:
        channel, rank, remaining, deadline = ctx
        if remaining == 0:
            self._record_rank(self._rank_banks(channel, rank))
            return
        segment = max(1, self.timing.trfc_ab // self.SEGMENTS)
        now = self.engine.now
        # Forced completion: the rest must fit before the deadline.
        must_finish_by = deadline - remaining * segment
        if now >= must_finish_by:
            self.forced_completions += 1
            for _ in range(remaining):
                self.controller.refresh_rank(channel, rank, segment)
            self._run_segments((channel, rank, 0, deadline))
            return
        if remaining < self.SEGMENTS and self._rank_busy(
            self._rank_banks(channel, rank)
        ):
            # Pause: let demand through, re-check shortly.
            self.pauses += 1
            self.engine.schedule(
                max(1, segment // self.RECHECK_DIVISOR),
                self._run_segments,
                (channel, rank, remaining, deadline),
            )
            return
        end = self.controller.refresh_rank(channel, rank, segment)
        self.engine.schedule_at(
            end, self._run_segments, (channel, rank, remaining - 1, deadline)
        )
