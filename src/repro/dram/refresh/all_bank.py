"""All-bank (rank-level) refresh: the DDRx baseline (paper Section 2.2.1).

Every tREFI_ab each rank receives one refresh command covering a group of
rows in *all* of its banks; the whole rank is unavailable for tRFC_ab.
Ranks are staggered by tREFI_ab / num_ranks, as in Figure 2a.

DDR4 Fine Granularity Refresh (Section 6.3) is this same scheduler running
on a :class:`~repro.dram.timing.DramTiming` built with ``FgrMode.X2``/``X4``
(tREFI divided by 2/4, tRFC divided by only 1.35/1.63).
"""

from __future__ import annotations

from repro.core.state import INT
from repro.dram.refresh.base import RefreshScheduler


class AllBankRefresh(RefreshScheduler):
    name = "all_bank"

    # Set by start(); checkpointed so a restored scheduler never needs a
    # second start() call.
    STATE = (("_trefi", INT), ("_trfc", INT), ("_banks_per_rank", INT))

    def __init__(self):
        super().__init__()
        self._trefi = 0
        self._trfc = 0
        self._banks_per_rank = 0

    def start(self) -> None:
        mc = self.controller
        self._trefi = self.timing.trefi_ab
        self._trfc = self.timing.trfc_ab
        self._banks_per_rank = mc.org.banks_per_rank
        for channel, rank, offset in self._rank_stagger():
            base_flat = mc.mapping.flat_bank_index(channel, rank, 0)
            self.engine.schedule(offset, self._fire, (channel, rank, base_flat))

    def _fire(self, ctx: tuple[int, int, int]) -> None:
        channel, rank, base_flat = ctx
        self.controller.refresh_rank(channel, rank, self._trfc)
        self._record_rank(range(base_flat, base_flat + self._banks_per_rank))
        self.engine.schedule(self._trefi, self._fire, ctx)
