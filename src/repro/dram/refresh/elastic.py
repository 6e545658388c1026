"""Elastic Refresh — Stuecheli et al., MICRO 2010 (paper Section 7).

An all-bank scheme that *postpones* refresh commands (JEDEC allows up to 8
outstanding) hoping to issue them in idle periods: a refresh is sent early
when the rank has no queued demand requests, and is forced when the
postponement budget is exhausted.

The paper's related-work observation — and what the model shows — is that
this helps low-intensity workloads but cannot help memory-intensive ones,
where idle periods are scarce and the postponed refreshes eventually fire
back-to-back into busy ranks.
"""

from __future__ import annotations

from repro.core.state import INT, mapping, seq
from repro.dram.refresh.base import RefreshScheduler


class ElasticRefresh(RefreshScheduler):
    name = "elastic"

    #: JEDEC DDRx allows up to 8 postponed refresh commands.
    MAX_POSTPONED = 8
    #: How often (in fractions of tREFI) the idle detector re-checks.
    CHECK_DIVISOR = 8

    STATE = (
        ("_debt", mapping(seq(INT, INT), INT)),
        ("forced_refreshes", INT),
        ("idle_refreshes", INT),
    )

    def __init__(self):
        super().__init__()
        self._debt: dict[tuple[int, int], int] = {}
        self.forced_refreshes = 0
        self.idle_refreshes = 0

    def start(self) -> None:
        for channel, rank, offset in self._rank_stagger():
            key = (channel, rank)
            self._debt[key] = 0
            self.engine.schedule(offset, self._accrue, key)
            self.engine.schedule(offset, self._poll, key)

    # -- debt accrual: one obligation per tREFI -------------------------------

    def _accrue(self, key: tuple[int, int]) -> None:
        # Bound method + key arg (not a closure) so the queued event can be
        # captured as a checkpoint descriptor.
        self._debt[key] += 1
        if self._debt[key] > self.MAX_POSTPONED:
            # Budget exhausted: a refresh must go out now.
            self._issue(key)
            self.forced_refreshes += 1
        self.engine.schedule(self.timing.trefi_ab, self._accrue, key)

    # -- idle detection ---------------------------------------------------------

    def _poll(self, key: tuple[int, int]) -> None:
        if self._debt[key] > 0 and not self._rank_busy(self._rank_banks(*key)):
            self._issue(key)
            self.idle_refreshes += 1
        self.engine.schedule(
            self.timing.trefi_ab // self.CHECK_DIVISOR, self._poll, key
        )

    def _issue(self, key: tuple[int, int]) -> None:
        channel, rank = key
        self.controller.refresh_rank(channel, rank, self.timing.trfc_ab)
        self._record_rank(self._rank_banks(channel, rank))
        self._debt[key] -= 1
