"""Property-based tests for the event engine (ordering, monotonic time)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine


@given(delays=st.lists(st.integers(0, 10_000), min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_execution_order_is_time_then_insertion(delays):
    eng = Engine()
    fired = []
    for i, delay in enumerate(delays):
        eng.schedule(delay, lambda d=delay, i=i: fired.append((d, i)))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.integers(0, 1000), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_now_is_monotonic(delays):
    eng = Engine()
    times = []
    for delay in delays:
        eng.schedule(delay, lambda: times.append(eng.now))
    eng.run()
    assert times == sorted(times)
    assert eng.now == max(delays)


@given(
    chain_lengths=st.lists(st.integers(1, 5), min_size=1, max_size=10),
)
@settings(max_examples=50, deadline=None)
def test_recursive_scheduling_runs_to_completion(chain_lengths):
    eng = Engine()
    completed = []

    def make_chain(remaining, tag):
        def step():
            if remaining == 1:
                completed.append(tag)
            else:
                eng.schedule(1, make_chain(remaining - 1, tag))
        return step

    for tag, length in enumerate(chain_lengths):
        eng.schedule(tag, make_chain(length, tag))
    eng.run()
    assert sorted(completed) == list(range(len(chain_lengths)))
