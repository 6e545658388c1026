"""Engine self-profiling: attribution, determinism of counts, neutrality."""

from repro.core.engine import Engine
from repro.obs.profiler import EngineProfiler


class FakeClock:
    """Deterministic clock: each read advances by a fixed step."""

    def __init__(self, step: float = 0.001):
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


class Subsystem:
    def __init__(self):
        self.calls = 0

    def tick(self):
        self.calls += 1


def test_bound_methods_aggregate_by_underlying_function():
    profiler = EngineProfiler(clock=FakeClock())
    a, b = Subsystem(), Subsystem()
    profiler.record(a.tick, 0.5)
    profiler.record(b.tick, 0.25)
    report = profiler.report()
    assert report["events_total"] == 2
    (row,) = report["callbacks"]
    assert row["owner"].endswith("Subsystem.tick")
    assert row["events"] == 2
    assert row["wall_seconds"] == 0.75


def test_subsystem_rollup_groups_by_repro_package():
    assert EngineProfiler._subsystem("repro.cpu.core.Core._issue") == "cpu"
    assert EngineProfiler._subsystem(
        "repro.dram.controller.MemoryController._pick") == "dram"
    assert EngineProfiler._subsystem("json.dump") == "json"


def test_report_rows_sorted_by_descending_events():
    profiler = EngineProfiler(clock=FakeClock())
    a = Subsystem()
    for _ in range(3):
        profiler.record(a.tick, 0.1)
    def plain():
        pass
    profiler.record(plain, 0.1)
    report = profiler.report()
    events = [row["events"] for row in report["callbacks"]]
    assert events == sorted(events, reverse=True)
    assert report["subsystems"][0]["events"] >= report["subsystems"][-1]["events"]


def _run_chain(engine, n):
    state = {"fired": 0}

    def hop():
        state["fired"] += 1
        if state["fired"] < n:
            engine.schedule(10, hop)

    engine.schedule(10, hop)
    engine.run()
    return state["fired"]


def test_profiled_run_counts_every_dispatch():
    engine = Engine()
    profiler = EngineProfiler(clock=FakeClock())
    engine.set_profiler(profiler)
    assert _run_chain(engine, 50) == 50
    report = profiler.report()
    assert report["events_total"] == 50
    assert report["events_total"] == engine.events_processed
    assert report["wall_total_seconds"] > 0


def test_profiled_run_matches_unprofiled_run():
    plain = Engine()
    fired_plain = _run_chain(plain, 25)

    profiled = Engine()
    profiled.set_profiler(EngineProfiler(clock=FakeClock()))
    fired_profiled = _run_chain(profiled, 25)

    assert fired_plain == fired_profiled
    assert plain.now == profiled.now
    assert plain.events_processed == profiled.events_processed


def test_profiled_run_until_respects_horizon_and_cancel():
    engine = Engine()
    profiler = EngineProfiler(clock=FakeClock())
    engine.set_profiler(profiler)
    fired = []
    engine.schedule(5, lambda: fired.append(5))
    engine.schedule(20, lambda: fired.append(20))
    engine.run_until(10)
    assert fired == [5]
    assert engine.now == 10
    assert profiler.report()["events_total"] == 1
    engine.run()
    assert fired == [5, 20]
    assert profiler.report()["events_total"] == 2


def test_remove_profiler_restores_plain_loop():
    engine = Engine()
    profiler = EngineProfiler(clock=FakeClock())
    engine.set_profiler(profiler)
    _run_chain(engine, 5)
    engine.set_profiler(None)
    state = {"fired": 0}

    def tick():
        state["fired"] += 1

    engine.schedule_at(engine.now + 1, tick)
    engine.run()
    assert state["fired"] == 1
    assert profiler.report()["events_total"] == 5  # no longer recording


def test_format_table_mentions_top_callback():
    profiler = EngineProfiler(clock=FakeClock())
    a = Subsystem()
    profiler.record(a.tick, 0.5)
    text = profiler.format_table()
    assert "Subsystem.tick" in text
    assert "events" in text
