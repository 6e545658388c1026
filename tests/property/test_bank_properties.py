"""Property-based tests for bank-level DDR timing invariants, through a
bare controller."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system_configs import default_system_config
from repro.dram.controller import MemoryController
from repro.dram.timing import DramTiming
from tests.conftest import BareDram

TIMING = DramTiming.from_config(default_system_config(refresh_scale=1024))

access_plans = st.lists(
    st.tuples(
        st.integers(0, 7),        # row
        st.integers(0, 63),       # column
        st.booleans(),            # is_write
        st.integers(0, 500),      # time advance before the access
    ),
    min_size=1,
    max_size=60,
)


def replay(dram, plan, before_access=None):
    """Enqueue *plan*'s accesses on bank 0, each at its cycle; returns the
    requests.  ``before_access(i)`` runs at each access's cycle first."""
    now = 0
    requests = []
    for i, (row, column, is_write, advance) in enumerate(plan):
        now += advance
        dram.at(now)
        if before_access is not None:
            before_access(i)
        requests.append(dram.access(row=row, column=column, is_read=not is_write))
    return requests


@given(plan=access_plans)
@settings(max_examples=120, deadline=None)
def test_service_timing_invariants(plan):
    dram = BareDram(TIMING)
    requests = replay(dram, plan)
    dram.run()
    for req in requests:
        # Commands never issue in the past.
        assert req.start_time >= req.arrive_time
        # Data follows the CAS by exactly the CAS latency, then one burst.
        gap = TIMING.tCL if req.is_read else TIMING.tCWL
        assert req.finish_time == req.start_time + gap + TIMING.tBL
        assert req.refresh_stall == 0
    # The shared bus is strictly serialized.
    bursts = sorted(req.finish_time - TIMING.tBL for req in requests)
    for a, b in zip(bursts, bursts[1:]):
        assert b >= a + TIMING.tBL
    # Row-hit classification is consistent with the open row, taking the
    # accesses in the order the bank served them.
    open_row = None
    for req in sorted(requests, key=lambda r: r.start_time):
        assert req.row_hit == (req.coord.row == open_row)
        open_row = req.coord.row
    assert dram.bank.open_row == open_row  # open policy keeps the row


@given(plan=access_plans, trfc_point=st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_no_access_overlaps_refresh(plan, trfc_point):
    """Any access issued after a refresh begins starts after it ends."""
    dram = BareDram(TIMING)
    refresh_at = trfc_point % len(plan)
    refresh_end = []

    def maybe_refresh(i):
        if i == refresh_at:
            refresh_end.append(dram.refresh(TIMING.trfc_pb))

    requests = replay(dram, plan, maybe_refresh)
    dram.run()
    for req in requests[refresh_at:]:
        assert req.start_time >= refresh_end[0] - TIMING.tRCD - TIMING.tRP


@given(plan=access_plans)
@settings(max_examples=80, deadline=None)
def test_closed_policy_never_leaves_row_open(plan):
    dram = BareDram(TIMING, row_policy="closed")

    def check_closed(i):
        assert dram.bank.open_row is None

    replay(dram, plan, check_closed)
    dram.run()
    assert dram.bank.open_row is None
    assert dram.bank.stats.row_hits == 0
    assert dram.bank.stats.row_conflicts == 0
    assert dram.bank.stats.row_misses == len(plan)


class ActLog(MemoryController):
    """A controller that records every ACT time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.act_log = []

    def _pick(self, flat):
        before = self.banks[flat].stats.activations
        super()._pick(flat)
        if self.banks[flat].stats.activations > before:
            self.act_log.append(self._acts_of[flat][-1])


@given(
    activations=st.lists(st.integers(0, 100), min_size=5, max_size=30),
)
@settings(max_examples=80, deadline=None)
def test_faw_window_bounds_activate_rate(activations):
    """No more than 4 activates in any tFAW window."""
    dram = BareDram(TIMING, controller=ActLog)
    now = 0
    for i, advance in enumerate(activations):
        now += advance
        # A new row on the next bank of rank 0: every access activates.
        dram.at(now).access(row=i // 8, bank=i % 8)
    dram.run()
    times = dram.mc.act_log
    assert len(times) == len(activations)
    for i in range(len(times) - 4):
        assert times[i + 4] - times[i] >= TIMING.tFAW
    for a, b in zip(times, times[1:]):
        assert b - a >= TIMING.tRRD
