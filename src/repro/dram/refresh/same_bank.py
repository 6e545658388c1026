"""The paper's proposed per-bank refresh schedule (Algorithm 1).

Contrary to the default round-robin per-bank scheduler, refresh commands
stay on the **same bank** (advancing the row group) in successive tREFI_pb
intervals until every row of that bank is refreshed, then move to the next
bank — bank first, then rank.

Consequence (Section 5.1): with 16 banks and a 64 ms retention window each
bank is refresh-busy only during one contiguous tREFW/16 = 4 ms *stretch*
and refresh-free for the remaining 60 ms.  Because the stretch length
coincides with the OS scheduling quantum, the OS can co-schedule tasks
around it — the schedule is fully *predictable*, which is what
:meth:`stretch_bank_at` exposes to the OS.
"""

from __future__ import annotations

from typing import Optional

from repro.core.state import INT
from repro.dram.refresh.base import RefreshScheduler
from repro.telemetry.events import (
    RefreshStretchBeginEvent,
    RefreshStretchEndEvent,
)


#: tRFC growth when one command covers b-times the rows, fitted to the
#: paper's DDR4 FGR data (1x/2x/4x granularity -> tRFC ratios
#: 1 / 1.35 / 1.63, i.e. roughly rows^0.35).
BATCH_EXPONENT = 0.35


def plan_batches(timing, batch_exponent: float = BATCH_EXPONENT) -> tuple[int, int]:
    """Plan the per-command row batch so a bank's refresh work fits in its
    stretch; returns ``(commands_per_bank, trfc_per_command)``.

    At 32 ms retention and high densities, tRFC_pb exceeds tREFI_pb:
    serialised single-row-group commands cannot finish a bank within
    tREFW / total_banks.  Batching b row groups per command costs only
    ~b^0.35 in tRFC (coarser granularity is more efficient — the inverse
    of the DDR4 FGR scaling in Section 6.3), so doubling the batch
    shrinks total refresh-busy time until the stretch fits.

    A module-level function (not a method) so the invariant monitors can
    recompute the expected schedule from the timing alone, independent of
    any scheduler instance's state.
    """
    n = timing.refreshes_per_bank
    stretch = timing.refresh_stretch
    batch = 1
    while batch < n:
        commands = -(-n // batch)
        trfc = round(timing.trfc_pb * batch ** batch_exponent)
        if commands * trfc <= stretch:
            break
        batch *= 2
    return -(-n // batch), round(timing.trfc_pb * batch ** batch_exponent)


class SameBankSequential(RefreshScheduler):
    name = "same_bank"

    BATCH_EXPONENT = BATCH_EXPONENT

    STATE = (
        ("_next_refresh_flat", INT),
        ("_rows_refreshed", INT),
        ("_cmd_index", INT),
    )
    # The batch plan is a pure function of the timing: recomputed after a
    # restore rather than trusted from the payload.
    DERIVED = ("_commands_per_bank", "_trfc_cmd")

    def __init__(self):
        super().__init__()
        # Algorithm 1 state: the bank being refreshed and its row progress.
        self._next_refresh_flat = 0
        self._rows_refreshed = 0
        # Global command index; command k fires at exactly
        # k * tREFW / (total_banks * commands_per_bank), so the schedule
        # never drifts off the stretch grid (integer tREFI rounding would
        # otherwise accumulate error across windows).
        self._cmd_index = 0
        self._commands_per_bank = 0
        self._trfc_cmd = 0

    def _plan_batches(self) -> None:
        """Install the :func:`plan_batches` schedule on this instance."""
        self._commands_per_bank, self._trfc_cmd = plan_batches(
            self.timing, self.BATCH_EXPONENT
        )

    _rebuild = _plan_batches

    def _command_time(self, k: int) -> int:
        timing = self.timing
        per_window = timing.total_banks * self._commands_per_bank
        return (k * timing.trefw) // per_window

    def start(self) -> None:
        self._plan_batches()
        now = self.engine.now
        if now > 0:
            # Mid-run start (cross-policy restore): resume the grid at the
            # first command slot not yet in the past and point the
            # Algorithm-1 cursor at that slot's bank/row position.
            per_window = self.timing.total_banks * self._commands_per_bank
            k = (now * per_window + self.timing.trefw - 1) // self.timing.trefw
            while self._command_time(k) < now:
                k += 1
            self._cmd_index = k
            self._next_refresh_flat = (
                k // self._commands_per_bank
            ) % self.timing.total_banks
            self._rows_refreshed = k % self._commands_per_bank
        self.engine.schedule_at(self._command_time(self._cmd_index), self._fire)

    def _fire(self) -> None:
        mc = self.controller
        timing = self.timing
        flat = self._next_refresh_flat
        channel, rank, bank = mc.mapping.unflatten_bank_index(flat)
        subarray = None
        num_subarrays = mc.org.subarrays_per_bank
        if num_subarrays > 1:
            # Rows are refreshed in order, so the row group being refreshed
            # walks the subarrays front to back within the stretch.
            subarray = (
                self._rows_refreshed * num_subarrays // self._commands_per_bank
            )
        if self.telemetry.enabled and self._rows_refreshed == 0:
            self.telemetry.emit(
                RefreshStretchBeginEvent(time=self.engine.now, bank=flat)
            )
        end = mc.refresh_bank(
            channel, rank, bank, self._trfc_cmd, subarray=subarray
        )
        row_units = timing.refreshes_per_bank / self._commands_per_bank
        self.stats.record(flat, row_units=row_units)

        # Algorithm 1: stay on this bank until all of its row groups are
        # refreshed, then advance to the next bank (wrapping to next rank).
        self._rows_refreshed += 1
        if self._rows_refreshed >= self._commands_per_bank:
            self._rows_refreshed = 0
            self._next_refresh_flat = (flat + 1) % mc.org.total_banks
            if self.telemetry.enabled:
                self.telemetry.emit(
                    RefreshStretchEndEvent(time=end, bank=flat)
                )

        self._cmd_index += 1
        self.engine.schedule_at(self._command_time(self._cmd_index), self._fire)

    # -- OS-visible schedule ---------------------------------------------------

    def stretch_bank_at(self, time: int) -> Optional[int]:
        """Flat bank index being refreshed during the stretch containing
        *time*.  Stretches tile the timeline from t=0, each
        ``tREFW / total_banks`` long, cycling over all banks."""
        timing = self.timing
        return (time * timing.total_banks // timing.trefw) % timing.total_banks
