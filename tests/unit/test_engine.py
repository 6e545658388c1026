"""Unit tests for the discrete-event engine."""

import pytest

from repro.core.engine import Engine
from repro.errors import SimulationError


def test_starts_at_time_zero():
    assert Engine().now == 0


def test_schedule_and_run_until_executes_in_order():
    eng = Engine()
    order = []
    eng.schedule(30, lambda: order.append("c"))
    eng.schedule(10, lambda: order.append("a"))
    eng.schedule(20, lambda: order.append("b"))
    eng.run_until(100)
    assert order == ["a", "b", "c"]
    assert eng.now == 100


def test_same_time_events_run_in_insertion_order():
    eng = Engine()
    order = []
    for tag in range(5):
        eng.schedule(7, lambda t=tag: order.append(t))
    eng.run_until(7)
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_before_later_events():
    eng = Engine()
    hits = []
    eng.schedule(5, lambda: hits.append(5))
    eng.schedule(50, lambda: hits.append(50))
    eng.run_until(10)
    assert hits == [5]
    assert eng.now == 10
    eng.run_until(60)
    assert hits == [5, 50]


def test_events_scheduled_during_execution_run():
    eng = Engine()
    hits = []

    def first():
        hits.append(eng.now)
        eng.schedule(5, lambda: hits.append(eng.now))

    eng.schedule(10, first)
    eng.run_until(100)
    assert hits == [10, 15]


def test_cancelled_event_does_not_fire():
    eng = Engine()
    hits = []
    event = eng.schedule_event(10, lambda: hits.append("x"))
    event.cancel()
    eng.run_until(100)
    assert hits == []


def test_cannot_schedule_in_the_past():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run_until(10)
    with pytest.raises(SimulationError):
        eng.schedule_at(5, lambda: None)
    with pytest.raises(SimulationError):
        eng.schedule(-1, lambda: None)


def test_schedule_at_current_time_allowed():
    eng = Engine()
    hits = []
    eng.schedule(10, lambda: eng.schedule(0, lambda: hits.append(eng.now)))
    eng.run_until(10)
    assert hits == [10]


def test_step_returns_false_when_empty():
    eng = Engine()
    assert eng.step() is False
    eng.schedule(1, lambda: None)
    assert eng.step() is True
    assert eng.step() is False


def test_peek_time_skips_cancelled():
    eng = Engine()
    e1 = eng.schedule_event(5, lambda: None)
    eng.schedule(9, lambda: None)
    e1.cancel()
    assert eng.peek_time() == 9


def test_run_drains_queue():
    eng = Engine()
    hits = []
    for t in (3, 1, 2):
        eng.schedule(t, lambda t=t: hits.append(t))
    eng.run()
    assert hits == [1, 2, 3]


def test_events_processed_counter():
    eng = Engine()
    for t in range(4):
        eng.schedule(t, lambda: None)
    cancelled = eng.schedule_event(9, lambda: None)
    cancelled.cancel()
    eng.run_until(100)
    assert eng.events_processed == 4


def test_schedule_at_now_runs_this_cycle():
    eng = Engine()
    hits = []
    eng.schedule(5, lambda: eng.schedule_at(eng.now, lambda: hits.append(eng.now)))
    eng.run_until(5)
    assert hits == [5]


def test_same_time_tie_break_with_mixed_entry_kinds():
    """Insertion order is preserved across bare callables, cancellable
    handles and ``(fn, arg)`` entries sharing one cycle."""
    eng = Engine()
    order = []
    eng.schedule(3, lambda: order.append("bare0"))
    eng.schedule_event(3, lambda: order.append("handle1"))
    eng.schedule(3, order.append, "arg2")
    eng.schedule(3, lambda: order.append("bare3"))
    eng.run()
    assert order == ["bare0", "handle1", "arg2", "bare3"]


def test_tie_break_stable_after_pool_reuse():
    """A second batch of arg-carrying entries, queued after the first
    fired, keeps insertion order too."""
    eng = Engine()
    first = []
    for i in range(4):
        eng.schedule(1, first.append, i)
    eng.run_until(1)
    second = []
    for i in range(4):
        eng.schedule(1, second.append, i)
    eng.run_until(2)
    assert first == [0, 1, 2, 3]
    assert second == [0, 1, 2, 3]


def test_cancel_is_idempotent_and_safe_after_fire_time():
    eng = Engine()
    hits = []
    event = eng.schedule_event(5, lambda: hits.append("a"))
    eng.schedule(5, lambda: hits.append("b"))
    event.cancel()
    event.cancel()  # repeated cancel: no-op
    eng.run_until(5)
    assert hits == ["b"]
    event.cancel()  # after its cycle passed: still a no-op
    assert eng.events_processed == 1


class _Boom(Exception):
    pass


class _TickClock:
    """Profiler stand-in: a clock that ticks once per read."""

    def __init__(self):
        self.t = 0.0

    def clock(self):
        self.t += 1.0
        return self.t

    def record(self, fn, elapsed):
        pass


def _drive_run(eng):
    eng.run()


def _drive_run_until(eng):
    eng.run_until(20)


def _drive_profiled(eng):
    eng.set_profiler(_TickClock())
    eng.run()


@pytest.mark.parametrize(
    "drive, final_now",
    [(_drive_run, 9), (_drive_run_until, 20), (_drive_profiled, 9)],
    ids=["run", "run_until", "profiled"],
)
def test_raising_callback_resumes_rest_of_bucket_in_order(drive, final_now):
    """A callback that raises propagates; the rest of its same-cycle
    bucket stays queued and resumes in order on the next run call."""
    eng = Engine()
    order = []

    def boom():
        order.append("boom")
        raise _Boom

    eng.schedule(5, lambda: order.append("a"))
    eng.schedule(5, order.append, "b")
    eng.schedule(5, boom)
    eng.schedule(5, order.append, "c")
    eng.schedule(5, lambda: order.append("d"))
    eng.schedule(9, order.append, "late")
    with pytest.raises(_Boom):
        drive(eng)
    assert order == ["a", "b", "boom"]
    assert eng.events_processed == 3
    assert eng.now == 5
    assert eng.pending_events == 3
    drive(eng)
    assert order == ["a", "b", "boom", "c", "d", "late"]
    assert eng.events_processed == 6
    assert eng.now == final_now
    assert eng.pending_events == 0


def test_run_until_advances_clock_with_empty_queue():
    eng = Engine()
    eng.run_until(123)
    assert eng.now == 123
    assert eng.events_processed == 0
    eng.run_until(123)  # not past the target: clock stays put
    assert eng.now == 123


def test_events_processed_invariant_across_identical_specs():
    """Same scheduling program => same events_processed, fire order and
    final clock — the invariance the CI bench job gates on."""

    def program(eng):
        out = []
        ticks = [0]

        def tick():
            ticks[0] += 1
            out.append(eng.now)
            if ticks[0] < 50:
                eng.schedule(3, tick)

        eng.schedule(0, tick)
        handles = [
            eng.schedule_event(7 * i, out.append, -i) for i in range(1, 6)
        ]
        handles[2].cancel()
        eng.run()
        return out, eng.events_processed, eng.now

    first = program(Engine())
    second = program(Engine())
    assert first == second
    assert first[1] == 50 + 4


def test_mass_cancel_from_callback_during_run():
    """Regression: cancel() can trigger _compact() from inside a callback
    while run() holds local aliases to _times/_buckets.  Compaction must
    mutate both in place — rebinding _times used to desync the aliases
    (KeyError on buckets.pop) and silently drop newly scheduled events."""
    eng = Engine()
    fired = []
    handles = []
    later = []

    def driver():
        for handle in handles[1:]:
            handle.cancel()  # triggers repeated mid-run compactions
        eng.schedule(500, lambda: later.append(eng.now))

    eng.schedule(1, driver)
    handles.extend(
        eng.schedule_event(10 + i, fired.append, 10 + i) for i in range(200)
    )
    eng.run()
    assert fired == [10]  # only the surviving handle fired
    assert later == [501]  # post-compaction schedule was not dropped
    assert eng.pending_events == 0
    assert eng.events_processed == 3


def test_mass_cancel_from_callback_during_run_until():
    """Same regression as above, through the run_until() drain loop."""
    eng = Engine()
    fired = []
    handles = []

    def driver():
        for handle in handles[1:]:
            handle.cancel()

    eng.schedule(1, driver)
    handles.extend(
        eng.schedule_event(10 + i, fired.append, 10 + i) for i in range(200)
    )
    eng.run_until(1000)
    assert fired == [10]
    assert eng.now == 1000
    assert eng.pending_events == 0


def test_stale_handle_cancel_cannot_kill_later_events():
    """Regression: fired schedule_event handles are never reused, so a
    retained handle cancelled late cannot cancel an unrelated, newly
    scheduled event."""
    eng = Engine()
    hits = []
    handle = eng.schedule_event(1, hits.append, "first")
    eng.run_until(1)
    assert hits == ["first"]
    for i in range(5):
        eng.schedule(1, hits.append, i)
    handle.cancel()  # stale cancel between scheduling and firing
    handle.cancel()
    eng.run_until(2)
    assert hits == ["first", 0, 1, 2, 3, 4]
    assert eng.events_processed == 6


def test_float_delays_coerce_to_int_time():
    """Regression: schedule()/schedule_event() coerce float delays to int
    (like schedule_at), so 5.7 lands in the t=5 bucket instead of minting
    a float bucket key that breaks same-cycle merging and ordering."""
    eng = Engine()
    order = []
    eng.schedule(5, lambda: order.append("int"))
    eng.schedule(5.7, lambda: order.append("float"))
    eng.schedule_event(5.2, lambda: order.append("handle"))
    eng.run()
    assert order == ["int", "float", "handle"]
    assert eng.now == 5
    assert isinstance(eng.now, int)


def test_pending_events_reports_live_and_compacts_stubs():
    eng = Engine()
    keep = [eng.schedule_event(10, lambda: None) for _ in range(10)]
    drop = [eng.schedule_event(20, lambda: None) for _ in range(200)]
    assert eng.pending_events == 210
    for event in drop:
        event.cancel()
    # Live count excludes every cancelled stub...
    assert eng.pending_events == 10
    # ...and compaction physically removed most of them from the queue.
    assert eng._queued_entries() < 100
    eng.run()
    assert eng.events_processed == 10
    assert keep[0].cancel() is None  # stale handle cancel stays safe


# -- checkpoint/restore ---------------------------------------------------


def _tagged_engine(record):
    """An engine plus a tag->callable registry appending to *record*."""
    eng = Engine()
    fns = {}
    for tag in ("a", "b", "c", "d", "e"):
        def fn(arg=None, tag=tag):
            record.append((tag, arg))
        fns[tag] = fn
    return eng, fns


def test_snapshot_restore_preserves_same_cycle_insertion_order():
    """The documented ChannelBus arbitration invariant: entries queued at
    one cycle fire in insertion order, and a snapshot/restore round trip
    (through JSON, as a checkpoint file would) must not reorder them."""
    import json

    rec1, rec2 = [], []
    eng1, fns1 = _tagged_engine(rec1)
    # Interleave bare callables and arg-carrying Event entries in one
    # bucket so the round trip has to preserve order across entry kinds.
    eng1.schedule(7, fns1["a"])
    eng1.schedule(7, fns1["b"], 1)
    eng1.schedule(7, fns1["c"])
    eng1.schedule(7, fns1["d"], 2)
    eng1.schedule(12, fns1["e"])
    eng1.run_until(3)

    def encode(fn, arg):
        tag = next(t for t, f in fns1.items() if f is fn)
        return [tag, arg]

    state = json.loads(json.dumps(eng1.snapshot_state(encode)))

    eng2, fns2 = _tagged_engine(rec2)
    eng2.restore_state(state, lambda desc: (fns2[desc[0]], desc[1]))
    assert eng2.now == 3
    eng1.run_until(20)
    eng2.run_until(20)
    expected = [("a", None), ("b", 1), ("c", None), ("d", 2), ("e", None)]
    assert rec1 == expected
    assert rec2 == expected
    assert eng2.events_processed == eng1.events_processed == 5


def test_snapshot_drops_cancelled_stubs():
    rec = []
    eng, fns = _tagged_engine(rec)
    eng.schedule(7, fns["a"])
    handle = eng.schedule_event(7, fns["b"])
    handle.cancel()
    state = eng.snapshot_state(
        lambda fn, arg: [next(t for t, f in fns.items() if f is fn), arg]
    )
    # The cancelled stub never reaches the encoder.
    assert state["_buckets"] == [[7, [["a", None]]]]
