"""Per-bank DRAM state machine and command timing.

Each bank tracks its open row and the earliest times the next CAS, ACT, PRE
or REF command may start, derived from the JEDEC parameters in
:class:`repro.dram.timing.DramTiming`.  The controller calls
:meth:`Bank.service` to schedule one column access, and
:meth:`Bank.begin_refresh` to start a refresh cycle.

Hot-path layout (see docs/PERFORMANCE.md): the mutable readiness fields
live in :class:`BankStateArrays` — one flat plain-int list per field,
indexed by flat bank index and shared by every bank of a controller — so
the controller's FR-FCFS decision loop reads bank availability with one
list subscript instead of an attribute chain through a ``Bank`` object.
``Bank`` keeps its full public API: ``bank.open_row``/``bank.cas_ready``
etc. are property views into the shared arrays, and the checkpoint
payload is unchanged (one dict per bank; a restore rebuilds the arrays
through the property writes its ``STATE`` rows make).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

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
from repro.dram.request import MemoryRequest
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


class ServiceTiming(NamedTuple):
    """Resolved command times for one column access.

    A NamedTuple: one is built per serviced request, and C-level tuple
    construction keeps the controller's issue path cheap."""

    cas_time: int
    data_start: int
    finish: int
    row_hit: bool


def _state_view(field: str):
    """Property exposing one flat-array slot as a plain int attribute."""

    def read(self):
        return getattr(self.arrays, field)[self.slot]

    def write(self, value):
        getattr(self.arrays, field)[self.slot] = value

    return property(read, write)


class Bank(Stateful):
    """State machine for a single DRAM bank.

    Mutable readiness state lives in the shared :class:`BankStateArrays`
    (``arrays``) at index ``slot``; a standalone bank (unit tests,
    examples) gets a private single-slot store.
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
        "flat_index",
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
        flat_index: int,
        num_subarrays: int = 1,
        rows_per_bank: int = 1,
        arrays: Optional[BankStateArrays] = None,
        slot: Optional[int] = None,
    ):
        self.channel = channel
        self.rank_id = rank_id
        self.bank_id = bank_id
        self.flat_index = flat_index
        # Subarray-granularity refresh (paper Section 7 extension): when a
        # refresh targets one subarray, accesses to the others proceed.
        self.num_subarrays = num_subarrays
        self.rows_per_bank = max(1, rows_per_bank)
        if arrays is None:
            arrays = BankStateArrays(1)
            slot = 0
        self.arrays = arrays
        self.slot = flat_index if slot is None else slot
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

    # -- availability ---------------------------------------------------------

    def available_at(self, now: int) -> int:
        """Earliest time a new command sequence may begin."""
        refresh_until = self.arrays.refresh_until[self.slot]
        return now if now > refresh_until else refresh_until

    def is_refreshing(self, now: int) -> bool:
        return now < self.arrays.refresh_until[self.slot]

    # -- demand access --------------------------------------------------------

    def service(
        self,
        request: MemoryRequest,
        now: int,
        timing: DramTiming,
        rank: "Rank",
        bus: "ChannelBus",
        close_row: bool = False,
    ) -> ServiceTiming:
        """Schedule one read/write column access; mutates bank/rank/bus state
        and returns the resolved command times.

        The refresh-stall attribution (how long the start was pushed out by
        a refresh-busy bank) is recorded on *request*.
        """
        arrays = self.arrays
        slot = self.slot
        refresh_until = arrays.refresh_until[slot]
        earliest = now if now > refresh_until else refresh_until
        # Refresh-stall attribution: overlap between the request's wait
        # [arrive, service] and the bank's refresh-busy interval.
        arrive = request.arrive_time
        started = arrays.refresh_started[slot]
        blocked_from = arrive if arrive > started else started
        refresh_stall = refresh_until - blocked_from
        if refresh_stall < 0:
            refresh_stall = 0
        row = request.coord.row
        # Subarray refresh blocks only requests into the refreshing subarray.
        sa_refresh_until = arrays.sa_refresh_until[slot]
        if (
            sa_refresh_until > earliest
            and row * self.num_subarrays // self.rows_per_bank
            == arrays.sa_refresh_id[slot]
        ):
            sa_blocked_from = max(arrive, arrays.sa_refresh_started[slot])
            refresh_stall += max(
                0, sa_refresh_until - max(earliest, sa_blocked_from)
            )
            earliest = sa_refresh_until

        stats = self.stats
        open_row = arrays.open_row[slot]
        if open_row == row:
            # Row hit: CAS only.
            row_hit = True
            cas_ready = arrays.cas_ready[slot]
            cas_earliest = earliest if earliest > cas_ready else cas_ready
            stats.row_hits += 1
        else:
            row_hit = False
            if open_row < 0:
                # Row closed: ACT + CAS.
                act_ready = arrays.act_ready[slot]
                act_earliest = earliest if earliest > act_ready else act_ready
                stats.row_misses += 1
            else:
                # Row conflict: PRE + ACT + CAS.
                pre_ready = arrays.pre_ready[slot]
                pre_time = earliest if earliest > pre_ready else pre_ready
                act_earliest = pre_time + timing.tRP
                act_ready = arrays.act_ready[slot]
                if act_ready > act_earliest:
                    act_earliest = act_ready
                stats.row_conflicts += 1
                stats.precharges += 1
            act_time = rank.earliest_activate(act_earliest, timing)
            rank.record_activate(act_time, timing)
            stats.activations += 1
            arrays.open_row[slot] = row
            arrays.act_ready[slot] = act_time + timing.tRC
            arrays.pre_ready[slot] = act_time + timing.tRAS
            cas_earliest = act_time + timing.tRCD

        is_read = request.is_read
        cas_to_data = timing.tCL if is_read else timing.tCWL
        # Reserve a burst slot on the shared data bus; the CAS is delayed so
        # its data lands exactly in the granted slot.
        data_start = bus.reserve(
            cas_earliest + cas_to_data,
            is_read=is_read,
            rank_key=(self.channel, self.rank_id),
            timing=timing,
        )
        cas_time = data_start - cas_to_data
        finish = data_start + timing.tBL

        arrays.cas_ready[slot] = cas_time + timing.tCCD
        if is_read:
            ready = cas_time + timing.tRTP
            if ready > arrays.pre_ready[slot]:
                arrays.pre_ready[slot] = ready
            stats.reads += 1
        else:
            ready = data_start + timing.tBL + timing.tWR
            if ready > arrays.pre_ready[slot]:
                arrays.pre_ready[slot] = ready
            stats.writes += 1

        if close_row:
            # Closed-row policy: auto-precharge after the access; the next
            # access pays ACT but never a conflict PRE.
            arrays.open_row[slot] = ROW_CLOSED
            pre_closed = arrays.pre_ready[slot] + timing.tRP
            if pre_closed > arrays.act_ready[slot]:
                arrays.act_ready[slot] = pre_closed
            stats.precharges += 1

        request.refresh_stall = refresh_stall
        request.row_hit = row_hit
        return ServiceTiming(
            cas_time=cas_time, data_start=data_start, finish=finish, row_hit=row_hit
        )

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
    """Rank-level activate constraints: tRRD and the four-activate window."""

    __slots__ = ("channel", "rank_id", "_act_times")

    # In place: the controller's per-flat activate-window aliases must
    # keep pointing at this list across a restore.
    STATE = (("_act_times", in_place(INTS)),)

    FAW_WINDOW = 4

    def __init__(self, channel: int, rank_id: int):
        self.channel = channel
        self.rank_id = rank_id
        self._act_times: list[int] = []

    def earliest_activate(self, wanted: int, timing: DramTiming) -> int:
        """Earliest ACT time >= *wanted* honoring tRRD and tFAW."""
        t = wanted
        act_times = self._act_times
        if act_times:
            last = act_times[-1] + timing.tRRD
            if last > t:
                t = last
            if len(act_times) >= self.FAW_WINDOW:
                faw = act_times[-self.FAW_WINDOW] + timing.tFAW
                if faw > t:
                    t = faw
        return t

    def record_activate(self, time: int, timing: DramTiming) -> None:
        act_times = self._act_times
        act_times.append(time)
        if len(act_times) > self.FAW_WINDOW:
            del act_times[: -self.FAW_WINDOW]

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

    def reserve(
        self,
        wanted: int,
        is_read: bool,
        rank_key: tuple[int, int],
        timing: DramTiming,
    ) -> int:
        """Grant a burst slot starting at or after *wanted*; returns the
        granted start time and advances the bus state."""
        ready = self.ready
        start = wanted if wanted > ready else ready
        last_was_read = self.last_was_read
        if last_was_read is not None:
            if last_was_read != is_read and not last_was_read:
                # write -> read turnaround
                turnaround = ready + timing.tWTR
                if turnaround > start:
                    start = turnaround
            last_rank_key = self.last_rank_key
            if last_rank_key is not None and last_rank_key != rank_key:
                switch = ready + timing.tRTRS
                if switch > start:
                    start = switch
        self.ready = start + timing.tBL
        self.last_was_read = is_read
        self.last_rank_key = rank_key
        self.busy_cycles += timing.tBL
        return start

    def utilization(self, elapsed: int) -> float:
        """Fraction of elapsed cycles the bus spent transferring data."""
        return self.busy_cycles / elapsed if elapsed > 0 else 0.0
