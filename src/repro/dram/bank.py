"""Per-bank DRAM state: open row, command readiness and refresh windows.

Each bank tracks its open row and the earliest times the next CAS, ACT,
PRE or REF command may start.  :class:`Rank` keeps the rank's last four
ACT times (tRRD and the tFAW window) and :class:`ChannelBus` the shared
data bus.  The memory controller's ``_pick`` is the one place a column
access is timed against this state; a bank itself only starts refreshes
(:meth:`Bank.refresh_start_time`, :meth:`Bank.begin_refresh`).

Hot-path layout (see docs/PERFORMANCE.md): the mutable readiness fields
live in :class:`BankStateArrays` — one flat plain-int list per field,
indexed by flat bank index and shared by every bank of a controller — so
``_pick`` reads bank state with one list subscript instead of an
attribute chain through a ``Bank`` object.  ``bank.open_row``,
``bank.cas_ready`` etc. are property views into the shared arrays, and
the checkpoint payload is one dict per bank (a restore rebuilds the
arrays through the property writes its ``STATE`` rows make).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.state import (
    BOOL,
    INT,
    INTS,
    OPT_INT,
    Stateful,
    in_place,
    optional,
    record,
    seq,
)
from repro.dram.timing import DramTiming
from repro.errors import ProtocolError
from repro.telemetry.stats import StatsBase

#: ``open_row`` sentinel for "no row open" inside the flat arrays (row
#: numbers are non-negative, so -1 never matches a request's row).
ROW_CLOSED = -1


class BankStateArrays:
    """Flat per-bank readiness state shared by every bank of a controller.

    One plain-int list per field, indexed by flat bank index.  Plain
    lists beat ``array('q')`` here: element reads come back as cached
    small ints with no boxing, and the controller hot path does orders
    of magnitude more reads than the snapshot layer does conversions.

    These arrays are the single source of truth — :class:`Bank`
    attribute access is a property view into them — and the stable ABI
    an optional compiled selection kernel can slot into later.
    """

    __slots__ = (
        "open_row",
        "cas_ready",
        "act_ready",
        "pre_ready",
        "refresh_until",
        "refresh_started",
        "sa_refresh_id",
        "sa_refresh_until",
        "sa_refresh_started",
    )

    def __init__(self, total_banks: int):
        self.open_row = [ROW_CLOSED] * total_banks
        self.cas_ready = [0] * total_banks
        self.act_ready = [0] * total_banks
        self.pre_ready = [0] * total_banks
        self.refresh_until = [0] * total_banks
        self.refresh_started = [0] * total_banks
        self.sa_refresh_id = [-1] * total_banks
        self.sa_refresh_until = [0] * total_banks
        self.sa_refresh_started = [0] * total_banks


@dataclass
class BankStats(StatsBase):
    activations: int = 0
    precharges: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    refresh_busy_cycles: int = 0


def _state_view(field: str):
    """Property exposing one flat-array slot as a plain int attribute."""

    def read(self):
        return getattr(self.arrays, field)[self.slot]

    def write(self, value):
        getattr(self.arrays, field)[self.slot] = value

    return property(read, write)


class Bank(Stateful):
    """One DRAM bank's row-buffer and refresh state.

    Mutable readiness state lives in the controller's shared
    :class:`BankStateArrays` (``arrays``) at index ``slot``, the bank's
    flat index.
    """

    STATE = (
        ("open_row", OPT_INT),
        ("cas_ready", INT),
        ("act_ready", INT),
        ("pre_ready", INT),
        ("refresh_until", INT),
        ("refresh_started", INT),
        ("sa_refresh_id", INT),
        ("sa_refresh_until", INT),
        ("sa_refresh_started", INT),
        ("stats", record(BankStats)),
    )

    __slots__ = (
        "channel",
        "rank_id",
        "bank_id",
        "num_subarrays",
        "rows_per_bank",
        "arrays",
        "slot",
        "stats",
    )

    def __init__(
        self,
        channel: int,
        rank_id: int,
        bank_id: int,
        arrays: BankStateArrays,
        slot: int,
        num_subarrays: int = 1,
        rows_per_bank: int = 1,
    ):
        self.channel = channel
        self.rank_id = rank_id
        self.bank_id = bank_id
        # Subarray-granularity refresh (paper Section 7 extension): when a
        # refresh targets one subarray, accesses to the others proceed.
        self.num_subarrays = num_subarrays
        self.rows_per_bank = max(1, rows_per_bank)
        self.arrays = arrays
        self.slot = slot
        self.stats = BankStats()

    # Readiness fields: views into the shared flat arrays.  ``open_row``
    # keeps its Optional[int] surface (None = closed) while the array
    # stores the ROW_CLOSED sentinel the hot path compares against.
    cas_ready = _state_view("cas_ready")
    act_ready = _state_view("act_ready")
    pre_ready = _state_view("pre_ready")
    refresh_until = _state_view("refresh_until")
    refresh_started = _state_view("refresh_started")
    sa_refresh_id = _state_view("sa_refresh_id")
    sa_refresh_until = _state_view("sa_refresh_until")
    sa_refresh_started = _state_view("sa_refresh_started")

    @property
    def open_row(self) -> Optional[int]:
        row = self.arrays.open_row[self.slot]
        return None if row < 0 else row

    @open_row.setter
    def open_row(self, value: Optional[int]) -> None:
        self.arrays.open_row[self.slot] = ROW_CLOSED if value is None else value

    def subarray_of_row(self, row: int) -> int:
        """Which subarray a row belongs to (contiguous row blocks)."""
        return row * self.num_subarrays // self.rows_per_bank

    # -- refresh ---------------------------------------------------------------

    def refresh_start_time(self, now: int, timing: DramTiming) -> int:
        """Earliest time a refresh command may begin on this bank.

        An open row must be precharged first; in-flight constraints
        (tRAS/tWR/tRTP already folded into ``pre_ready``) are honored.
        """
        arrays = self.arrays
        slot = self.slot
        refresh_until = arrays.refresh_until[slot]
        start = now if now > refresh_until else refresh_until
        if arrays.open_row[slot] >= 0:
            pre_ready = arrays.pre_ready[slot]
            start = (start if start > pre_ready else pre_ready) + timing.tRP
        else:
            # A just-issued CAS keeps the bank busy briefly.
            cas_ready = arrays.cas_ready[slot]
            if cas_ready > start:
                start = cas_ready
        return start

    def begin_refresh(self, start: int, trfc: int, subarray: int | None = None) -> int:
        """Mark the bank (or one *subarray*) refresh-busy for
        [start, start + trfc).

        With *subarray* set (SALP-style hardware, the paper's Section 7
        extension), only requests into that subarray are blocked; the rest
        of the bank keeps serving.  An open row inside the refreshing
        subarray is precharged.
        """
        if trfc <= 0:
            raise ProtocolError(f"tRFC must be positive, got {trfc}")
        arrays = self.arrays
        slot = self.slot
        end = start + trfc
        self.stats.refreshes += 1
        self.stats.refresh_busy_cycles += trfc
        open_row = arrays.open_row[slot]
        if subarray is not None and self.num_subarrays > 1:
            if start > arrays.sa_refresh_until[slot]:
                arrays.sa_refresh_started[slot] = start
            arrays.sa_refresh_id[slot] = subarray
            if end > arrays.sa_refresh_until[slot]:
                arrays.sa_refresh_until[slot] = end
            if open_row >= 0 and self.subarray_of_row(open_row) == subarray:
                self.stats.precharges += 1
                arrays.open_row[slot] = ROW_CLOSED
            return end
        if start > arrays.refresh_until[slot]:
            # New refresh-busy interval (not back-to-back with the last).
            arrays.refresh_started[slot] = start
        if open_row >= 0:
            self.stats.precharges += 1
        arrays.open_row[slot] = ROW_CLOSED
        if end > arrays.refresh_until[slot]:
            arrays.refresh_until[slot] = end
        if end > arrays.cas_ready[slot]:
            arrays.cas_ready[slot] = end
        if end > arrays.act_ready[slot]:
            arrays.act_ready[slot] = end
        if end > arrays.pre_ready[slot]:
            arrays.pre_ready[slot] = end
        return end

    def __repr__(self) -> str:
        return (
            f"Bank(ch{self.channel} rk{self.rank_id} bk{self.bank_id} "
            f"row={self.open_row})"
        )


class Rank(Stateful):
    """Rank-level activate state: the last four ACT times, which bound the
    next ACT by tRRD and the four-activate window tFAW."""

    __slots__ = ("channel", "rank_id", "_act_times")

    # In place: the controller's per-flat activate-window aliases must
    # keep pointing at this list across a restore.
    STATE = (("_act_times", in_place(INTS)),)

    def __init__(self, channel: int, rank_id: int):
        self.channel = channel
        self.rank_id = rank_id
        self._act_times: list[int] = []

    def __repr__(self) -> str:
        return f"Rank(ch{self.channel} rk{self.rank_id})"


class ChannelBus(Stateful):
    """Shared data bus of one channel: serialises burst transfers and applies
    read/write and rank-switch turnaround penalties."""

    __slots__ = ("ready", "last_was_read", "last_rank_key", "busy_cycles")

    STATE = (
        ("ready", INT),
        ("last_was_read", optional(BOOL)),
        ("last_rank_key", optional(seq(INT, INT))),
        ("busy_cycles", INT),
    )

    def __init__(self):
        self.ready = 0
        self.last_was_read: Optional[bool] = None
        self.last_rank_key: Optional[tuple[int, int]] = None
        self.busy_cycles = 0

    def utilization(self, elapsed: int) -> float:
        """Fraction of elapsed cycles the bus spent transferring data."""
        return self.busy_cycles / elapsed if elapsed > 0 else 0.0
