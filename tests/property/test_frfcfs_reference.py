"""FR-FCFS selection against a scan-based reference.

``MemoryController._pick`` keeps each bank's reads and writes as plain
lists in arrival order, with the queued rows beside them, and finds the
oldest open-row hit with ``rows.index``.  :func:`reference_pick` states
the rule as a plain scan over the bank's queued requests instead: reads
go first unless the controller is draining, and a bank with no reads
serves writes; within that queue the oldest hit on the open row wins,
else the oldest request.  Age is ``req_id``, which the controller hands
out in arrival order, so the reference does not depend on the order of
the controller's lists.

:class:`CheckedController` asks the reference before every pick, from
the controller's queue contents, open row and drain mode, and the
controller must then serve that request with the same ``row_hit``.  A
bank inside a refresh serves nothing.  The checked controller also keeps
its own record of what each bank holds, so a request lost, duplicated or
misfiled by ``enqueue`` fails as well.
"""

import collections
import random

import pytest

from repro.bench import kernels
from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core import system as system_module
from repro.core.engine import Engine
from repro.core.simulator import build_system
from repro.dram.address import AddressMapping
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


class CheckedController(MemoryController):
    """A controller that checks every pick against :func:`reference_pick`.

    ``cases`` counts the checked picks by what the rule had to decide, so
    a test can show that its stream reached each branch.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.held = [[] for _ in range(self.org.total_banks)]
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
        bank = self.banks[flat]
        open_row = bank.open_row
        draining = self.drain_mode
        if bank.refresh_until > self.engine.now:
            expected, row_hit = None, False
            self.cases["refresh_busy"] += 1
        else:
            expected, row_hit = reference_pick(queued, open_row, draining)
            self._count_case(queued, expected, open_row, draining)

        before = {r.req_id for r in queued}
        super()._pick(flat)
        left = before - {r.req_id for r in self._rq[flat] + self._wq[flat]}

        if expected is None:
            assert not left, f"bank {flat} served {left} with nothing to serve"
            return
        assert left == {expected.req_id}, (
            f"bank {flat} at {self.engine.now}: served {left}, reference "
            f"picks #{expected.req_id} (open row {open_row}, drain {draining})"
        )
        assert expected.row_hit is row_hit
        self.held[flat].remove(expected)

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


@pytest.mark.parametrize("scenario", ["all_bank", "codesign"])
def test_wl6_run_matches_reference(monkeypatch, scenario):
    """A short WL-6 run: the traffic the reference rule has to hold for,
    refresh stalls included."""
    monkeypatch.setattr(system_module, "MemoryController", CheckedController)
    system = build_system("WL-6", scenario, refresh_scale=128)
    system.run(num_windows=0.25, warmup_windows=0.05)
    cases = system.controller.cases
    assert cases["served"] > 5000
    for case in (
        "several_hits",
        "fallback_of_several",
        "reads_and_writes",
        "write_without_reads",
    ):
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
                self.restore_state(self.snapshot_state(), queued)
            super()._pick(flat)

    monkeypatch.setattr(kernels, "MemoryController", RestoringController)
    completed, mc = kernels._drain_storm()
    assert completed == 2048
    assert mc.cases["draining"] > 0
