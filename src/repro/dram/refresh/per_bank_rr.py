"""Per-bank round-robin refresh: the LPDDR3+ baseline (Section 2.2.2).

One refresh command is issued somewhere every
``tREFI_pb = tREFW / (total_banks * refreshes_per_bank)``; the target
rotates round-robin over all (rank, bank) pairs, so successive intervals
refresh the *same row group in different banks* (Figure 2b).
"""

from __future__ import annotations

from repro.core.state import INT, INTS
from repro.dram.refresh.base import RefreshScheduler


class PerBankRoundRobin(RefreshScheduler):
    name = "per_bank"

    STATE = (("_next_flat", INT), ("_progress", INTS))

    def __init__(self):
        super().__init__()
        self._next_flat = 0
        self._progress: list[int] = []

    def start(self) -> None:
        self._progress = [0] * self.controller.org.total_banks
        self._schedule(0)

    def _schedule(self, delay: int) -> None:
        self.engine.schedule(delay, self._fire)

    def _fire(self) -> None:
        mc = self.controller
        timing = self.timing
        flat = self._next_flat
        channel, rank, bank = mc.mapping.unflatten_bank_index(flat)
        subarray = None
        num_subarrays = mc.org.subarrays_per_bank
        if num_subarrays > 1:
            subarray = (
                self._progress[flat] * num_subarrays // timing.refreshes_per_bank
            )
        mc.refresh_bank(channel, rank, bank, timing.trfc_pb, subarray=subarray)
        self.stats.record(flat, row_units=1.0)
        self._progress[flat] = (self._progress[flat] + 1) % timing.refreshes_per_bank
        self._next_flat = (flat + 1) % mc.org.total_banks
        self._schedule(timing.trefi_pb)
