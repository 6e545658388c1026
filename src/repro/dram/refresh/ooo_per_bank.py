"""Out-of-order per-bank refresh (Chang et al., HPCA 2014; paper Section 6.5).

Every tREFI_pb the controller refreshes the bank with the *fewest
outstanding demand requests* among the banks that still owe refreshes in the
current retention window.  A deadline rule forces critically-late banks so
that every bank still receives its full quota of commands per window.

The paper observes this helps only marginally over round-robin per-bank
refresh: with task data spread over all banks, a bank that is idle when the
decision is made typically receives requests *during* the long tRFC_pb.
"""

from __future__ import annotations

from repro.core.state import INT, INTS
from repro.dram.refresh.base import RefreshScheduler


class OutOfOrderPerBank(RefreshScheduler):
    name = "ooo_per_bank"

    STATE = (("_debt", INTS), ("_window_end", INT), ("_rr_tiebreak", INT))

    def __init__(self):
        super().__init__()
        self._debt: list[int] = []
        self._window_end = 0
        self._rr_tiebreak = 0

    def start(self) -> None:
        # Mid-run starts (cross-policy restore) open the window at `now`.
        self._begin_window(start=self.engine.now)
        # order: appended after anything already queued this cycle, so the
        # first refresh decision follows the controller picks in the bucket.
        self.engine.schedule(0, self._fire)

    def _begin_window(self, start: int) -> None:
        total = self.controller.org.total_banks
        self._debt = [self.timing.refreshes_per_bank] * total
        self._window_end = start + self.timing.trefw

    def _fire(self) -> None:
        now = self.engine.now
        if now >= self._window_end:
            self._begin_window(start=self._window_end)

        target = self._pick_target(now)
        if target is not None:
            mc = self.controller
            channel, rank, bank = mc.mapping.unflatten_bank_index(target)
            mc.refresh_bank(channel, rank, bank, self.timing.trfc_pb)
            self.stats.record(target, row_units=1.0)
            self._debt[target] -= 1
        self.engine.schedule(self.timing.trefi_pb, self._fire)

    def _pick_target(self, now: int) -> int | None:
        """Deadline-critical bank if any, else least-loaded indebted bank."""
        owing = [flat for flat, debt in enumerate(self._debt) if debt > 0]
        if not owing:
            return None

        slots_left = max(1, (self._window_end - now) // self.timing.trefi_pb)
        total_debt = sum(self._debt)
        critical = [f for f in owing if self._debt[f] * len(owing) >= slots_left]
        if total_debt >= slots_left and critical:
            candidates = critical
        else:
            candidates = owing

        queue_len = self.controller.queued_requests_per_bank()
        best = min(
            candidates,
            key=lambda f: (queue_len[f], (f - self._rr_tiebreak) % len(self._debt)),
        )
        self._rr_tiebreak = (best + 1) % len(self._debt)
        return best
