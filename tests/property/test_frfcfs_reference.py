"""FR-FCFS picks and their timing against plain references.

``MemoryController._pick`` keeps each bank's reads and writes as plain
lists in arrival order, with the queued rows beside them, and finds the
oldest open-row hit with ``rows.index``.  :func:`reference_pick` states
the rule as a plain scan over the bank's queued requests instead: reads
go first unless the controller is draining, and a bank with no reads
serves writes; within that queue the oldest hit on the open row wins,
else the oldest request.  Age is ``req_id``, which the controller hands
out in arrival order, so the reference does not depend on the order of
the controller's lists.

``_pick`` is also the one place the simulator times a column access,
against flat per-bank arrays and cached timing ints.
:func:`reference_access` states that timing as plain arithmetic over
plain objects, reading every parameter from ``DramTiming``: a
:class:`BankState`, the rank's last four ACT times and a
:class:`BusState`.

:class:`CheckedController` asks both references on every pick.  Before
the pick it copies the bank's fields and counters, the rank's ACT window
and the bus state.  The controller must then serve the reference's
request with the reference's CAS time, finish, ``row_hit`` and
``refresh_stall``, and leave bank, rank and bus exactly as the reference
leaves its copies: a rule that only moves a later constraint (tRTP, tWR)
shows up in that state, not in this pick's times.  A bank inside a
refresh serves nothing, and a pick that serves nothing changes no state.
The checked controller also keeps its own record of what each bank
holds, so a request lost, duplicated or misfiled by ``enqueue`` fails as
well.
"""

import collections
import dataclasses
import random
from typing import NamedTuple, Optional

import pytest

from repro.bench import kernels
from repro.config.dram_configs import DramOrganization, FgrMode
from repro.config.system_configs import default_system_config
from repro.core import system as system_module
from repro.core.engine import Engine
from repro.core.simulator import build_system
from repro.dram.address import AddressMapping
from repro.dram.bank import BankStats
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming


def reference_pick(queued, open_row, draining):
    """The FR-FCFS choice among one bank's *queued* requests (any order):
    ``(request, row_hit)``, or ``(None, False)`` for an empty bank."""
    reads = [r for r in queued if r.is_read]
    writes = [r for r in queued if not r.is_read]
    first, second = (writes, reads) if draining else (reads, writes)
    candidates = first or second
    if not candidates:
        return None, False
    oldest = oldest_hit = None
    for request in candidates:
        if oldest is None or request.req_id < oldest.req_id:
            oldest = request
        if request.coord.row == open_row and (
            oldest_hit is None or request.req_id < oldest_hit.req_id
        ):
            oldest_hit = request
    if oldest_hit is not None:
        return oldest_hit, True
    return oldest, False


@dataclasses.dataclass(slots=True)
class BankState:
    """One bank's readiness fields (``open_row`` -1 when closed) and
    counters, as plain values."""

    open_row: int
    cas_ready: int
    act_ready: int
    pre_ready: int
    refresh_until: int
    refresh_started: int
    sa_refresh_id: int
    sa_refresh_until: int
    sa_refresh_started: int
    stats: BankStats

    @classmethod
    def of(cls, mc, flat):
        """A copy of bank *flat* of controller *mc*."""
        arrays = mc.bank_state
        return cls(
            arrays.open_row[flat],
            arrays.cas_ready[flat],
            arrays.act_ready[flat],
            arrays.pre_ready[flat],
            arrays.refresh_until[flat],
            arrays.refresh_started[flat],
            arrays.sa_refresh_id[flat],
            arrays.sa_refresh_until[flat],
            arrays.sa_refresh_started[flat],
            BankStats(**vars(mc.banks[flat].stats)),
        )


@dataclasses.dataclass(slots=True)
class BusState:
    """A channel data bus as plain values."""

    ready: int
    last_was_read: Optional[bool]
    last_rank_key: Optional[tuple]
    busy_cycles: int

    @classmethod
    def of(cls, bus):
        """A copy of a controller's ``ChannelBus``."""
        return cls(bus.ready, bus.last_was_read, bus.last_rank_key, bus.busy_cycles)


class Access(NamedTuple):
    cas: int
    finish: int
    row_hit: bool
    refresh_stall: int


def reference_access(
    bank, acts, bus, request, now, timing, subarrays, rows_per_bank, close_row, cases
):
    """Time one column access for *request* at *now*.

    Updates *bank*, the rank's ACT times *acts* (last four kept) and
    *bus* in place and returns the :class:`Access`.  A bank has
    *subarrays* equal blocks of its *rows_per_bank* rows; *close_row*
    is the closed-row policy.  *cases* counts the constraints that
    decided a time.
    """
    row = request.coord.row
    arrive = request.arrive_time

    # A refresh-busy bank starts the access when the refresh ends.  The
    # stall is the part of the refresh inside the request's wait.
    start = max(now, bank.refresh_until)
    stall = max(0, bank.refresh_until - max(arrive, bank.refresh_started))
    # A subarray refresh blocks only the rows of that subarray.
    if (
        bank.sa_refresh_until > start
        and row * subarrays // rows_per_bank == bank.sa_refresh_id
    ):
        sa_stall = bank.sa_refresh_until - max(start, arrive, bank.sa_refresh_started)
        if sa_stall > 0:
            stall += sa_stall
            cases["subarray_stall"] += 1
        start = bank.sa_refresh_until
    if stall > 0:
        cases["refresh_stall"] += 1

    row_hit = bank.open_row == row
    if row_hit:
        cas_earliest = max(start, bank.cas_ready)
        bank.stats.row_hits += 1
    else:
        if bank.open_row < 0:
            act = max(start, bank.act_ready)
            bank.stats.row_misses += 1
        else:
            pre = max(start, bank.pre_ready)
            act = max(pre + timing.tRP, bank.act_ready)
            bank.stats.row_conflicts += 1
            bank.stats.precharges += 1
        if acts and acts[-1] + timing.tRRD > act:
            act = acts[-1] + timing.tRRD
            cases["tRRD"] += 1
        if len(acts) >= 4 and acts[-4] + timing.tFAW > act:
            act = acts[-4] + timing.tFAW
            cases["tFAW"] += 1
        acts.append(act)
        del acts[:-4]
        bank.stats.activations += 1
        bank.open_row = row
        bank.act_ready = act + timing.tRC
        bank.pre_ready = act + timing.tRAS
        cas_earliest = act + timing.tRCD

    # The data burst takes the next free bus slot; a read after a write
    # waits tWTR, and a burst from another rank waits tRTRS.
    is_read = request.is_read
    cas_to_data = timing.tCL if is_read else timing.tCWL
    data = max(cas_earliest + cas_to_data, bus.ready)
    if is_read and bus.last_was_read is False and bus.ready + timing.tWTR > data:
        data = bus.ready + timing.tWTR
        cases["tWTR"] += 1
    rank_key = (request.coord.channel, request.coord.rank)
    if (
        bus.last_rank_key is not None
        and bus.last_rank_key != rank_key
        and bus.ready + timing.tRTRS > data
    ):
        data = bus.ready + timing.tRTRS
        cases["tRTRS"] += 1
    cas = data - cas_to_data
    finish = data + timing.tBL
    bus.ready = finish
    bus.last_was_read = is_read
    bus.last_rank_key = rank_key
    bus.busy_cycles += timing.tBL

    bank.cas_ready = cas + timing.tCCD
    if is_read:
        bank.pre_ready = max(bank.pre_ready, cas + timing.tRTP)
        bank.stats.reads += 1
    else:
        bank.pre_ready = max(bank.pre_ready, finish + timing.tWR)
        bank.stats.writes += 1
    if close_row:
        # Auto-precharge: the next access pays ACT, never a conflict PRE.
        bank.open_row = -1
        bank.act_ready = max(bank.act_ready, bank.pre_ready + timing.tRP)
        bank.stats.precharges += 1

    assert start <= cas_earliest <= cas, "a CAS before the bank is ready"
    assert row_hit or acts[-1] + timing.tRCD <= cas, "a CAS before tRCD"
    return Access(cas, finish, row_hit, stall)


class CheckedController(MemoryController):
    """A controller that checks every pick against :func:`reference_pick`
    and :func:`reference_access`.

    ``cases`` counts the checked picks by what the rules had to decide,
    so a test can show that its stream reached each branch.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.held = [[] for _ in range(self.org.total_banks)]
        self.finishes = {}
        self.cases = collections.Counter()

    def enqueue(self, request):
        super().enqueue(request)
        coord = request.coord
        flat = self.mapping.flat_bank_index(coord.channel, coord.rank, coord.bank)
        self.held[flat].append(request)

    def _pick(self, flat):
        queued = self._rq[flat] + self._wq[flat]
        assert sorted(r.req_id for r in queued) == sorted(
            r.req_id for r in self.held[flat]
        ), f"bank {flat} queues disagree with what was enqueued there"
        now = self.engine.now
        bank = BankState.of(self, flat)
        acts = list(self._acts_of[flat])
        bus = BusState.of(self._bus_of[flat])
        draining = self.drain_mode
        if bank.refresh_until > now:
            expected, row_hit = None, False
            self.cases["refresh_busy"] += 1
        else:
            expected, row_hit = reference_pick(queued, bank.open_row, draining)
            self._count_case(queued, expected, bank.open_row, draining)

        before = {r.req_id for r in queued}
        super()._pick(flat)
        left = before - {r.req_id for r in self._rq[flat] + self._wq[flat]}

        if expected is None:
            assert not left, f"bank {flat} served {left} with nothing to serve"
            assert self._state(flat) == (bank, acts, bus), (
                f"bank {flat} at {now}: a pick that served nothing changed state"
            )
            return
        assert left == {expected.req_id}, (
            f"bank {flat} at {now}: served {left}, reference "
            f"picks #{expected.req_id} (open row {bank.open_row}, drain {draining})"
        )
        assert expected.row_hit is row_hit
        self.held[flat].remove(expected)

        want = reference_access(
            bank,
            acts,
            bus,
            expected,
            now,
            self.timing,
            subarrays=self.org.subarrays_per_bank,
            rows_per_bank=self.mapping.rows_per_bank,
            close_row=self.row_policy == "closed",
            cases=self.cases,
        )
        got = (expected.start_time, expected.row_hit, expected.refresh_stall)
        assert got == (want.cas, want.row_hit, want.refresh_stall), (
            f"bank {flat} at {now}: request #{expected.req_id} got (cas, "
            f"row_hit, refresh_stall) {got}, reference {want}"
        )
        assert self._state(flat) == (bank, acts, bus), (
            f"bank {flat} at {now}: bank, rank or bus state after serving "
            f"#{expected.req_id} differs from the reference's"
        )
        self.finishes[expected.req_id] = want.finish

    def _complete(self, request):
        assert self.engine.now == self.finishes.pop(request.req_id), (
            f"request #{request.req_id} finished at {self.engine.now}"
        )
        super()._complete(request)

    def _state(self, flat):
        return (
            BankState.of(self, flat),
            list(self._acts_of[flat]),
            BusState.of(self._bus_of[flat]),
        )

    def _count_case(self, queued, expected, open_row, draining):
        if expected is None:
            self.cases["empty"] += 1
            return
        same_kind = [r for r in queued if r.is_read == expected.is_read]
        hits = sum(1 for r in same_kind if r.coord.row == open_row)
        self.cases["served"] += 1
        if hits >= 2:
            self.cases["several_hits"] += 1
        if hits == 0 and len(same_kind) >= 2:
            self.cases["fallback_of_several"] += 1
        if len(same_kind) < len(queued):
            self.cases["reads_and_writes"] += 1
        if draining:
            self.cases["draining"] += 1
        elif not expected.is_read:
            self.cases["write_without_reads"] += 1


def _dram_fixture(row_policy="open"):
    timing = DramTiming.from_config(default_system_config(refresh_scale=1024))
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=64)
    engine = Engine()
    mc = CheckedController(engine, timing, org, mapping, row_policy=row_policy)
    return engine, mapping, mc


def _closed_loop_stream(seed, row_policy, requests=3000, max_depth=10):
    """Seeded requests with at most *max_depth* outstanding, the depth
    WL-6 reaches (its controller never holds more than 8 reads or 10
    writes): a third are writes, half reuse one of the last few rows, and
    each completion issues a burst of up to three more after a seeded
    gap."""
    engine, mapping, mc = _dram_fixture(row_policy)
    rng = random.Random(seed)
    recent = collections.deque(maxlen=6)
    state = {"issued": 0, "outstanding": 0}

    def issue():
        if recent and rng.random() < 0.5:
            frame = rng.choice(recent)
        else:
            frame = rng.randrange(mapping.total_frames)
            recent.append(frame)
        address = mapping.frame_offset_to_address(frame, rng.randrange(64) * 64)
        rtype = RequestType.WRITE if rng.random() < 1 / 3 else RequestType.READ
        state["issued"] += 1
        state["outstanding"] += 1
        mc.enqueue(
            MemoryRequest(
                rtype,
                address,
                mapping.address_to_coordinate(address),
                on_complete=complete,
            )
        )

    def refill():
        burst = rng.randint(1, 3)
        while (
            burst
            and state["outstanding"] < max_depth
            and state["issued"] < requests
        ):
            issue()
            burst -= 1

    def complete(request):
        state["outstanding"] -= 1
        engine.schedule(rng.choice((1, 5, 40, 300)), refill)

    for _ in range(max_depth):
        issue()
    engine.run_until(200_000_000)
    assert state["issued"] == requests
    assert state["outstanding"] == 0
    return mc


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_stream_at_wl6_depth_matches_reference(seed):
    mc = _closed_loop_stream(seed, "open")
    cases = mc.cases
    assert cases["served"] == 3000
    for case in (
        "several_hits",
        "fallback_of_several",
        "reads_and_writes",
        "write_without_reads",
    ):
        assert cases[case] > 0, case


@pytest.mark.parametrize("seed", [1, 2])
def test_closed_row_policy_matches_reference(seed):
    """Every access closes its row, so no pick is a row hit: the rule
    falls back to the oldest request every time."""
    mc = _closed_loop_stream(seed, "closed")
    assert mc.cases["served"] == 3000
    assert mc.cases["fallback_of_several"] > 0
    assert mc.dispatch_cost_model()["row_hit_pops"] == 0


@pytest.mark.parametrize(
    "kernel, served",
    [
        (kernels._request_stream, 2000),
        (kernels._drain_storm, 2048),
        (kernels._row_hit_locality, 2000),
    ],
    ids=["request_stream", "drain_storm", "row_hit_locality"],
)
def test_controller_kernels_match_reference(monkeypatch, kernel, served):
    """The bench kernels' streams: ~125 queued reads per bank at once,
    completion-paced waves of 60 writes and 4 reads that push the
    controller through write drain, and eight-column row bursts."""
    monkeypatch.setattr(kernels, "MemoryController", CheckedController)
    completed, mc = kernel()
    assert completed == served
    assert mc.cases["served"] == served
    assert mc.cases["several_hits"] > 0
    if kernel is kernels._drain_storm:
        assert mc.cases["draining"] > 0
        assert mc.cases["reads_and_writes"] > 0


#: Cases every WL-6 run below reaches, on top of its own list.
WL6_CASES = (
    "fallback_of_several",
    "reads_and_writes",
    "write_without_reads",
    "tRRD",
    "tFAW",
    "tWTR",
    "tRTRS",
)


# The baseline and the co-design run 0.25 windows, the other settings
# 0.15: the checked controller costs about 20 us a pick, and the whole
# file should stay under 10 s.
@pytest.mark.parametrize(
    "scenario, overrides, windows, reached",
    [
        pytest.param(
            "all_bank", {}, 0.25, "several_hits refresh_stall", id="all_bank"
        ),
        pytest.param("codesign", {}, 0.25, "several_hits", id="codesign"),
        pytest.param(
            "per_bank", {}, 0.15, "several_hits refresh_stall", id="per_bank"
        ),
        pytest.param(
            "elastic", {}, 0.15, "several_hits refresh_stall", id="elastic"
        ),
        pytest.param(
            "pausing", {}, 0.15, "several_hits refresh_stall", id="pausing"
        ),
        pytest.param(
            "ooo_per_bank",
            {},
            0.15,
            "several_hits refresh_stall",
            id="ooo_per_bank",
        ),
        pytest.param(
            "adaptive", {}, 0.15, "several_hits refresh_stall", id="adaptive"
        ),
        pytest.param(
            "per_bank",
            {"organization": DramOrganization(subarrays_per_bank=4)},
            0.15,
            "several_hits subarray_stall",
            id="per_bank_4_subarrays",
        ),
        pytest.param(
            "codesign", {"row_policy": "closed"}, 0.15, "", id="codesign_closed_row"
        ),
        pytest.param(
            "all_bank",
            {"fgr_mode": FgrMode.X4, "density_gbit": 16},
            0.15,
            "several_hits refresh_stall",
            id="all_bank_fgr4x_16gb",
        ),
    ],
)
def test_wl6_run_matches_reference(monkeypatch, scenario, overrides, windows, reached):
    """A short WL-6 run under each refresh policy, with subarray refresh,
    the closed-row policy and FGR 4x: the traffic both references have
    to hold for, refresh stalls included."""
    monkeypatch.setattr(system_module, "MemoryController", CheckedController)
    system = build_system("WL-6", scenario, refresh_scale=128, **overrides)
    system.run(num_windows=windows, warmup_windows=0.05)
    cases = system.controller.cases
    assert cases["served"] > 20_000 * windows
    for case in WL6_CASES + tuple(reached.split()):
        assert cases[case] > 0, case


def test_pick_order_survives_a_restore_between_picks(monkeypatch):
    """``restore_state`` rebuilds the queues and their row lists from the
    snapshot's req-id lists; restoring before every tenth pick of the
    drain storm must not move a single pick."""

    class RestoringController(CheckedController):
        picks = 0

        def _pick(self, flat):
            self.picks += 1
            if self.picks % 10 == 0:
                queued = {r.req_id: r for r in self.queued_requests()}
                self.restore_state(self.snapshot_state(), {"request": queued})
            super()._pick(flat)

    monkeypatch.setattr(kernels, "MemoryController", RestoringController)
    completed, mc = kernels._drain_storm()
    assert completed == 2048
    assert mc.cases["draining"] > 0
