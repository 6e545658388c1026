"""Memory controller: per-bank FR-FCFS scheduling, read/write queues with
batch write draining, shared-bus arbitration and refresh injection.

Matches Table 1: FR-FCFS, open-row policy, 64/64 read/write queues, writes
drained in batches between low/high watermarks 32/54.

Hot-path layout (docs/PERFORMANCE.md has the full picture):

* Bank readiness lives in controller-owned flat arrays
  (:class:`repro.dram.bank.BankStateArrays`); ``_pick`` reads
  ``refresh_until``/``open_row`` with one list subscript and the per-flat
  ``Rank``/``ChannelBus`` objects come from precomputed lookup lists, so
  the FR-FCFS decision touches no attribute chains or dict lookups.
* Each bank keeps its reads and its writes in two plain lists in
  arrival order, each with a parallel list of the queued rows.  The
  oldest open-row hit is ``rows.index(open_row)`` after an ``in`` probe,
  both C-level scans; without a hit the pick takes position 0.  Real
  queues are short (on WL-6 the picked bank holds at most two requests
  94% of the time), so a scan costs less than maintaining an index.
* All of this is derived state: snapshots keep the original per-bank
  req-id list schema, and a restore rebuilds the arrays (through the
  banks' property writes), the row lists and the occupancy counters from
  it, so checkpoint payloads and bit-identity are unchanged.

The dispatch cost model (:meth:`MemoryController.dispatch_cost_model`)
counts scheduler work deterministically — picks, dead picks,
refresh-deferred picks, drain transitions — with all common-path
quantities derived from existing stats so the counters only ever
increment off the service path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.dram_configs import DramOrganization
from repro.core.engine import Engine
from repro.core.state import (
    BOOL,
    COMPONENTS,
    INT,
    REQUEST,
    Stateful,
    component_map,
    listof,
    record,
    seq,
)
from repro.dram.address import AddressMapping
from repro.dram.bank import Bank, BankStateArrays, ChannelBus, Rank
from repro.dram.request import MemoryRequest
from repro.dram.timing import DramTiming
from repro.errors import SimulationError
from repro.telemetry.events import DramCommandEvent, RefreshCommandEvent
from repro.telemetry.hub import Telemetry
from repro.telemetry.stats import StatsBase


@dataclass
class ControllerStats(StatsBase):
    reads_completed: int = 0
    writes_completed: int = 0
    read_latency_sum: int = 0
    refresh_stall_sum: int = 0
    refresh_stalled_reads: int = 0
    row_hits: int = 0
    rank_refreshes: int = 0
    bank_refreshes: int = 0

    @property
    def avg_read_latency(self) -> float:
        """Average read latency in CPU cycles (queueing + service)."""
        if self.reads_completed == 0:
            return 0.0
        return self.read_latency_sum / self.reads_completed

    @property
    def row_hit_rate(self) -> float:
        if self.reads_completed == 0:
            return 0.0
        return self.row_hits / self.reads_completed


class MemoryController(Stateful):
    """One controller managing every channel of the memory system.

    Queues are checkpointed as req-ids under the frozen keys
    ``_read_q``/``_write_q``; the system layer writes each request once.
    """

    STATE = (
        ("_rq", listof(listof(REQUEST), sized=True), "_read_q"),
        ("_wq", listof(listof(REQUEST), sized=True), "_write_q"),
        ("read_count", INT),
        ("write_count", INT),
        ("drain_mode", BOOL),
        ("_pick_pending", listof(BOOL, sized=True)),
        ("_next_req_id", INT),
        ("banks", COMPONENTS),
        ("ranks", component_map(seq(INT, INT))),
        ("buses", COMPONENTS),
        ("stats", record(ControllerStats)),
    )
    DERIVED = (
        "_rq_rows",
        "_wq_rows",
        "_occupancy",
        "_cm_dead_picks",
        "_cm_refresh_deferred_picks",
        "_cm_drain_entries",
        "_cm_drain_exits",
        "_cm_batched_wakeups",
        "_cm_batched_wakeup_banks",
    )

    def __init__(
        self,
        engine: Engine,
        timing: DramTiming,
        organization: DramOrganization,
        mapping: AddressMapping,
        write_drain_low: int = 32,
        write_drain_high: int = 54,
        row_policy: str = "open",
        telemetry: Optional[Telemetry] = None,
    ):
        if row_policy not in ("open", "closed"):
            raise SimulationError(f"unknown row policy {row_policy!r}")
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.engine = engine
        self.timing = timing
        self.org = organization
        self.mapping = mapping
        self.write_drain_low = write_drain_low
        self.write_drain_high = write_drain_high
        self.row_policy = row_policy
        self._close_row = row_policy == "closed"

        total = organization.total_banks
        # Single source of truth for bank readiness; every Bank is a view
        # into one slot (see repro.dram.bank docstring).
        self.bank_state = BankStateArrays(total)
        self.banks: list[Bank] = []
        for flat in range(total):
            channel, rank, bank = mapping.unflatten_bank_index(flat)
            self.banks.append(
                Bank(
                    channel,
                    rank,
                    bank,
                    self.bank_state,
                    flat,
                    num_subarrays=organization.subarrays_per_bank,
                    rows_per_bank=mapping.rows_per_bank,
                )
            )
        self.ranks: dict[tuple[int, int], Rank] = {
            (c, r): Rank(c, r)
            for c in range(organization.channels)
            for r in range(organization.ranks_per_channel)
        }
        self.buses: list[ChannelBus] = [
            ChannelBus() for _ in range(organization.channels)
        ]
        # Hot-path aliases and per-flat lookups: the pick path indexes
        # these lists instead of chasing bank attributes or dict keys.
        state = self.bank_state
        self._refresh_until = state.refresh_until
        self._refresh_started = state.refresh_started
        self._open_row = state.open_row
        self._cas_ready = state.cas_ready
        self._act_ready = state.act_ready
        self._pre_ready = state.pre_ready
        self._sa_refresh_id = state.sa_refresh_id
        self._sa_refresh_until = state.sa_refresh_until
        self._sa_refresh_started = state.sa_refresh_started
        self._rank_of: list[Rank] = [
            self.ranks[(b.channel, b.rank_id)] for b in self.banks
        ]
        self._bus_of: list[ChannelBus] = [
            self.buses[b.channel] for b in self.banks
        ]
        # One shared key tuple per rank (no per-access tuple allocation in
        # the bus-turnaround check).
        self._rank_key_of: list[tuple[int, int]] = [
            (b.channel, b.rank_id) for b in self.banks
        ]
        # Per-flat activate-window lists (shared per rank; Rank mutates
        # the list in place everywhere, including restore_state, so the
        # alias never goes stale).  Bank stats are deliberately NOT
        # aliased: System._reset_stats rebinds ``bank.stats`` at the
        # measurement barrier.
        self._acts_of = [r._act_times for r in self._rank_of]
        # Timing parameters as plain ints (DramTiming is a no-slots frozen
        # dataclass and tRC is a property; the pick path cannot afford
        # either).
        self._tCL = timing.tCL
        self._tCWL = timing.tCWL
        self._tRCD = timing.tRCD
        self._tRP = timing.tRP
        self._tRAS = timing.tRAS
        self._tBL = timing.tBL
        self._tCCD = timing.tCCD
        self._tRTP = timing.tRTP
        self._tWR = timing.tWR
        self._tWTR = timing.tWTR
        self._tRRD = timing.tRRD
        self._tFAW = timing.tFAW
        self._tRTRS = timing.tRTRS
        self._tRC = timing.tRC
        self._num_subarrays = organization.subarrays_per_bank
        self._rows_per_bank = mapping.rows_per_bank

        # Per-bank read and write queues in arrival order, each with the
        # queued requests' rows beside it (index i of one list is index i
        # of the other).
        self._rq: list[list[MemoryRequest]] = [[] for _ in range(total)]
        self._wq: list[list[MemoryRequest]] = [[] for _ in range(total)]
        self._rq_rows: list[list[int]] = [[] for _ in range(total)]
        self._wq_rows: list[list[int]] = [[] for _ in range(total)]
        # Per-bank read+write occupancy, maintained incrementally; the
        # reusable view handed out by queued_requests_per_bank().
        self._occupancy: list[int] = [0] * total
        self.read_count = 0
        self.write_count = 0
        self.drain_mode = False
        # One in-flight pick per bank (True while a pick event is queued).
        # Picks are never deferred on empty queues: the pick event's
        # position in its cycle bucket is what arbitrates same-cycle bus
        # contention between banks, so even a "dead" pick must be queued
        # to keep tie-break order (and therefore results) bit-identical.
        self._pick_pending: list[bool] = [False] * total
        self._next_req_id = 0
        self._ranks_per_channel = organization.ranks_per_channel
        self._banks_per_rank = organization.banks_per_rank
        self.stats = ControllerStats()
        # Dispatch cost model: deterministic work counters, incremented
        # only off the service fast path (dead/deferred picks and
        # drain/batch transitions); everything per-service is derived
        # from bank/controller stats in dispatch_cost_model().  Process-
        # local diagnostics: not part of snapshots or RunResult.
        self._cm_dead_picks = 0
        self._cm_refresh_deferred_picks = 0
        self._cm_drain_entries = 0
        self._cm_drain_exits = 0
        self._cm_batched_wakeups = 0
        self._cm_batched_wakeup_banks = 0
        # Prebound hot callables: every schedule of a pick/complete would
        # otherwise allocate a fresh bound-method object.  The instance
        # attribute shadows the class method with one reusable binding;
        # the checkpoint codec (fn.__self__/__name__) and the profiler
        # (fn.__func__) read through it unchanged.
        self._pick = self._pick
        self._complete = self._complete
        self._schedule_at = engine.schedule_at

    # -- admission ---------------------------------------------------------------

    def enqueue(self, request: MemoryRequest) -> None:
        """Accept a request into its bank queue and kick the bank."""
        coord = request.coord
        flat = (
            coord[0] * self._ranks_per_channel + coord[1]
        ) * self._banks_per_rank + coord[2]
        if request.req_id < 0:
            request.req_id = self._next_req_id
            self._next_req_id += 1
        engine = self.engine
        request.arrive_time = engine.now
        if request.is_read:
            self._rq[flat].append(request)
            self._rq_rows[flat].append(coord.row)
            self.read_count += 1
        else:
            self._wq[flat].append(request)
            self._wq_rows[flat].append(coord.row)
            self.write_count += 1
            if self.write_count >= self.write_drain_high:
                if not self.drain_mode:
                    self.drain_mode = True
                    self._cm_drain_entries += 1
        self._occupancy[flat] += 1
        if not self._pick_pending[flat]:
            self._pick_pending[flat] = True
            # order: the kick appends after any picks already queued this
            # cycle; same-cycle bucket position is bus-arbitration order.
            engine.schedule_at(engine.now, self._pick, flat)

    # -- refresh entry points (called by refresh schedulers) ----------------------

    def refresh_bank(
        self,
        channel: int,
        rank: int,
        bank: int,
        trfc: int,
        subarray: int | None = None,
    ) -> int:
        """Begin a per-bank (or per-subarray) refresh; returns completion."""
        flat = self.mapping.flat_bank_index(channel, rank, bank)
        bank_obj = self.banks[flat]
        start = bank_obj.refresh_start_time(self.engine.now, self.timing)
        end = bank_obj.begin_refresh(start, trfc, subarray=subarray)
        self.stats.bank_refreshes += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                RefreshCommandEvent(
                    time=start,
                    channel=channel,
                    rank=rank,
                    bank=bank,
                    duration=trfc,
                    all_bank=False,
                )
            )
        if subarray is None or bank_obj.num_subarrays == 1:
            # The whole bank is blocked: its next pick waits for the end.
            # A subarray refresh leaves the pick alone; the pick delays
            # (and charges) only a request into the refreshing subarray.
            self._kick(flat, end)
        return end

    def refresh_rank(self, channel: int, rank: int, trfc: int) -> int:
        """Begin an all-bank refresh on a rank; returns its completion time."""
        base = self.mapping.flat_bank_index(channel, rank, 0)
        members = self.banks[base : base + self.org.banks_per_rank]
        start = max(
            b.refresh_start_time(self.engine.now, self.timing) for b in members
        )
        end = start + trfc
        for b in members:
            b.begin_refresh(start, trfc)
        self.stats.rank_refreshes += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                RefreshCommandEvent(
                    time=start,
                    channel=channel,
                    rank=rank,
                    bank=-1,
                    duration=trfc,
                    all_bank=True,
                )
            )
        self._kick_rank(base, end)
        return end

    # -- introspection (used by the refresh schedulers) ----------------------------

    def queued_requests_per_bank(self) -> list[int]:
        """Read+write occupancy per flat bank index.

        Returns the controller's incrementally-maintained counter list —
        a live, reusable view (callers must treat it as read-only), not a
        fresh allocation; the OOO-refresh tick path reads it every poll.
        """
        return self._occupancy

    # -- scheduling ------------------------------------------------------------------

    def _kick(self, flat: int, at: int) -> None:
        """Ensure a pick event is pending for bank *flat*, at *at* or now,
        whichever is later."""
        if self._pick_pending[flat]:
            return
        self._pick_pending[flat] = True
        when = max(at, self.engine.now)
        self.engine.schedule_at(when, self._pick, flat)

    def _kick_rank(self, base: int, end: int) -> None:
        """Wake every bank of a rank after an all-bank refresh.

        All non-pending banks share one batched wake-up event; the picks
        run in flat-index order, exactly the order the per-bank events
        used to occupy in the cycle bucket, so same-cycle bus arbitration
        is unchanged."""
        batch: Optional[list[int]] = None
        for flat in range(base, base + self._banks_per_rank):
            if self._pick_pending[flat]:
                continue
            self._pick_pending[flat] = True
            if batch is None:
                batch = []
            batch.append(flat)
        if batch is not None:
            self._cm_batched_wakeups += 1
            self._cm_batched_wakeup_banks += len(batch)
            now = self.engine.now
            # order: one batched wake; _pick_many issues picks in flat-index
            # order, the same same-cycle slot sequence the per-bank pick
            # events would have occupied in the bucket.
            self.engine.schedule_at(
                end if end > now else now, self._pick_many, batch
            )

    def _pick_many(self, flats: list[int]) -> None:
        for flat in flats:
            if self._pick_pending[flat]:
                self._pick(flat)

    def _pick(self, flat: int) -> None:
        """Issue the FR-FCFS-best request for bank *flat*, if any.

        The one place a column access is timed: PRE/ACT/CAS against the
        bank's readiness state, the rank's tRRD/tFAW window and the
        channel bus, using the flat arrays and the cached timing ints.
        ``tests/property/test_frfcfs_reference.py`` checks every served
        pick against a plain reference model: the request chosen, its CAS
        time, ``row_hit`` and ``refresh_stall``, and the bank, rank and
        bus state the pick leaves behind.
        """
        self._pick_pending[flat] = False
        engine = self.engine
        now = engine.now

        until = self._refresh_until[flat]
        if until > now:
            self._cm_refresh_deferred_picks += 1
            self._pick_pending[flat] = True
            engine.schedule_at(until, self._pick, flat)
            return

        # -- FR-FCFS select: the oldest hit to the open row, else the
        #    oldest request; reads before writes except in drain mode,
        #    with opportunistic writes when the bank has no reads. --
        if self.drain_mode:
            q = self._wq[flat]
            if q:
                rows = self._wq_rows[flat]
            else:
                q = self._rq[flat]
                rows = self._rq_rows[flat]
        else:
            q = self._rq[flat]
            if q:
                rows = self._rq_rows[flat]
            else:
                q = self._wq[flat]
                rows = self._wq_rows[flat]
        if not q:
            self._cm_dead_picks += 1
            return

        open_row = self._open_row
        cur_row = open_row[flat]
        # A closed bank's open row is -1, which no queued row equals.
        if cur_row in rows:
            i = rows.index(cur_row)
            request = q.pop(i)
            del rows[i]
            row_hit = True
        else:
            request = q.pop(0)
            del rows[0]
            row_hit = False
        self._occupancy[flat] -= 1

        # -- column access (the refresh gate above guarantees
        #    until <= now, so the access starts at ``now``) --
        arrive = request.arrive_time
        started = self._refresh_started[flat]
        blocked_from = arrive if arrive > started else started
        refresh_stall = until - blocked_from
        if refresh_stall < 0:
            refresh_stall = 0
        row = request.coord.row
        earliest = now
        sa_until = self._sa_refresh_until[flat]
        if (
            sa_until > earliest
            and row * self._num_subarrays // self._rows_per_bank
            == self._sa_refresh_id[flat]
        ):
            sa_started = self._sa_refresh_started[flat]
            sa_blocked_from = arrive if arrive > sa_started else sa_started
            base = earliest if earliest > sa_blocked_from else sa_blocked_from
            extra = sa_until - base
            if extra > 0:
                refresh_stall += extra
            earliest = sa_until

        stats = self.banks[flat].stats
        if row_hit:
            # Row hit: CAS only.
            cas_ready = self._cas_ready[flat]
            cas_earliest = earliest if earliest > cas_ready else cas_ready
            stats.row_hits += 1
        else:
            act_arr = self._act_ready
            if cur_row < 0:
                # Row closed: ACT + CAS.
                act_ready = act_arr[flat]
                act_time = earliest if earliest > act_ready else act_ready
                stats.row_misses += 1
            else:
                # Row conflict: PRE + ACT + CAS.
                pre_ready = self._pre_ready[flat]
                pre_time = earliest if earliest > pre_ready else pre_ready
                act_time = pre_time + self._tRP
                act_ready = act_arr[flat]
                if act_ready > act_time:
                    act_time = act_ready
                stats.row_conflicts += 1
                stats.precharges += 1
            # Rank ACT constraints: tRRD after the last ACT, tFAW after
            # the fourth-last (the window list is shared per rank).
            acts = self._acts_of[flat]
            if acts:
                t = acts[-1] + self._tRRD
                if t > act_time:
                    act_time = t
                if len(acts) >= 4:
                    t = acts[-4] + self._tFAW
                    if t > act_time:
                        act_time = t
            acts.append(act_time)
            if len(acts) > 4:
                del acts[:-4]
            stats.activations += 1
            open_row[flat] = row
            act_arr[flat] = act_time + self._tRC
            self._pre_ready[flat] = act_time + self._tRAS
            cas_earliest = act_time + self._tRCD

        is_read = request.is_read
        cas_to_data = self._tCL if is_read else self._tCWL
        # Burst slot on the shared data bus, after any write-to-read or
        # rank-switch turnaround.
        bus = self._bus_of[flat]
        wanted = cas_earliest + cas_to_data
        ready = bus.ready
        data_start = wanted if wanted > ready else ready
        last_was_read = bus.last_was_read
        if last_was_read is not None:
            if last_was_read != is_read and not last_was_read:
                # write -> read turnaround
                turnaround = ready + self._tWTR
                if turnaround > data_start:
                    data_start = turnaround
            last_rank_key = bus.last_rank_key
            rank_key = self._rank_key_of[flat]
            if last_rank_key is not None and last_rank_key != rank_key:
                switch = ready + self._tRTRS
                if switch > data_start:
                    data_start = switch
        else:
            rank_key = self._rank_key_of[flat]
        tBL = self._tBL
        bus.ready = data_start + tBL
        bus.last_was_read = is_read
        bus.last_rank_key = rank_key
        bus.busy_cycles += tBL
        cas = data_start - cas_to_data
        finish = data_start + tBL

        self._cas_ready[flat] = cas + self._tCCD
        pre_arr = self._pre_ready
        if is_read:
            ready = cas + self._tRTP
            if ready > pre_arr[flat]:
                pre_arr[flat] = ready
            stats.reads += 1
            self.read_count -= 1
        else:
            ready = finish + self._tWR
            if ready > pre_arr[flat]:
                pre_arr[flat] = ready
            stats.writes += 1
            count = self.write_count - 1
            self.write_count = count
            if self.drain_mode and count <= self.write_drain_low:
                self.drain_mode = False
                self._cm_drain_exits += 1
        if self._close_row:
            # Closed-row policy: auto-precharge after the access.
            open_row[flat] = -1
            pre_closed = pre_arr[flat] + self._tRP
            if pre_closed > self._act_ready[flat]:
                self._act_ready[flat] = pre_closed
            stats.precharges += 1

        request.refresh_stall = refresh_stall
        request.row_hit = row_hit
        request.start_time = cas
        schedule_at = self._schedule_at
        schedule_at(finish, self._complete, request)
        # Next pick once this command has gone out on the command bus.
        nxt = now + 1
        if cas > nxt:
            nxt = cas
        self._pick_pending[flat] = True
        schedule_at(nxt, self._pick, flat)

    def _complete(self, request: MemoryRequest) -> None:
        now = self.engine.now
        request.finish_time = now
        if self.telemetry.enabled:
            coord = request.coord
            self.telemetry.emit(
                DramCommandEvent(
                    time=now,
                    op="RD" if request.is_read else "WR",
                    channel=coord.channel,
                    rank=coord.rank,
                    bank=coord.bank,
                    row_hit=request.row_hit,
                    task_id=request.task_id,
                    latency=request.latency,
                    refresh_stall=request.refresh_stall,
                    issue=request.start_time,
                )
            )
        stats = self.stats
        if request.is_read:
            stats.reads_completed += 1
            # == request.latency, with finish_time == now just written.
            stats.read_latency_sum += now - request.arrive_time
            if request.row_hit:
                stats.row_hits += 1
            stall = request.refresh_stall
            if stall > 0:
                stats.refresh_stall_sum += stall
                stats.refresh_stalled_reads += 1
        else:
            stats.writes_completed += 1
        if request.on_complete is not None:
            request.on_complete(request)

    # -- dispatch cost model -----------------------------------------------------

    def dispatch_cost_model(self) -> dict:
        """Deterministic dispatch-work counters (no wall clocks).

        Service-path quantities are derived from bank/controller stats,
        so the explicit counters only increment on cold branches and the
        model costs the fast path nothing.  Exported into bench reports
        and the ``--profile`` report; see docs/PERFORMANCE.md for the
        field reference.
        """
        serviced = 0
        row_hit_pops = 0
        for bank in self.banks:
            bstats = bank.stats
            serviced += bstats.reads + bstats.writes
            row_hit_pops += bstats.row_hits
        dead = self._cm_dead_picks
        deferred = self._cm_refresh_deferred_picks
        picks = serviced + dead + deferred
        return {
            "picks": picks,
            "serviced": serviced,
            "dead_picks": dead,
            "refresh_deferred_picks": deferred,
            "row_hit_pops": row_hit_pops,
            "fifo_pops": serviced - row_hit_pops,
            # The queues are plain lists with nothing to sweep; the key
            # stays for the readers that expect it.
            "stale_skips": 0,
            "drain_entries": self._cm_drain_entries,
            "drain_exits": self._cm_drain_exits,
            "batched_wakeups": self._cm_batched_wakeups,
            "batched_wakeup_banks": self._cm_batched_wakeup_banks,
            # Relative ratios the trend gate tracks: scheduling waste per
            # pick must not drift upward, nor the row-hit share downward.
            "dead_pick_ratio": round(dead / picks, 6) if picks else 0.0,
            "row_hit_pop_ratio": (
                round(row_hit_pops / serviced, 6) if serviced else 0.0
            ),
            "stale_skips_per_pop": 0.0,
        }

    # -- checkpoint/restore ----------------------------------------------------

    def queued_requests(self) -> list[MemoryRequest]:
        """Every request currently sitting in a bank queue (reads first per
        bank, flat-index order) — the checkpoint layer serializes these
        together with the in-flight ones referenced by engine events."""
        out: list[MemoryRequest] = []
        for flat in range(self.org.total_banks):
            out.extend(self._rq[flat])
            out.extend(self._wq[flat])
        return out

    def _rebuild(self) -> None:
        # The banks' property writes rebuilt the flat arrays; the row lists
        # and the occupancy counters follow the restored queues.
        self._rq_rows = [[r.coord.row for r in q] for q in self._rq]
        self._wq_rows = [[r.coord.row for r in q] for q in self._wq]
        occupancy = self._occupancy
        for flat in range(self.org.total_banks):
            occupancy[flat] = len(self._rq[flat]) + len(self._wq[flat])

    def __repr__(self) -> str:
        return (
            f"MemoryController(reads={self.stats.reads_completed}, "
            f"writes={self.stats.writes_completed}, drain={self.drain_mode})"
        )
