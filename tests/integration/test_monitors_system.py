"""Invariant monitors on real runs: clean baselines and mutation tripwires.

The mutation tests are the monitors' reason to exist: deliberately
break Algorithm 1 (stretch one command short) and Algorithm 3 (pick
refresh-obliviously) and assert the corresponding monitor trips.  If a
monitor ever goes blind, these tests — not a production run — find out.
"""

import pytest

from repro.core.results import RunResult
from repro.core.simulator import make_run_spec, run_spec
from repro.dram.refresh.same_bank import SameBankSequential
from repro.errors import MonitorError
from repro.obs.monitors import MonitorSuite
from repro.os.refresh_aware import RefreshAwareScheduler
from repro.os.scheduler import CfsScheduler
from repro.telemetry import Telemetry

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)


def fast_spec(scenario="codesign", **overrides):
    return make_run_spec("WL-6", scenario, **{**FAST, **overrides})


@pytest.mark.parametrize("scenario", ["all_bank", "per_bank", "codesign"])
def test_monitored_run_is_clean(scenario):
    suite = MonitorSuite()
    result = run_spec(fast_spec(scenario), monitors=suite)
    assert result.monitor_violations == []
    # Monitors actually looked at traffic, not just stayed silent.
    summary = suite.summary()
    assert summary["refresh_overlap"]["commands_checked"] > 0
    if scenario == "codesign":
        assert summary["refresh_stretch"]["stretches_checked"] > 0
        assert summary["scheduler_conflict"]["picks_checked"] > 0
        assert summary["allocation_partition"]["allocs_checked"] > 0


def test_monitoring_does_not_change_the_result():
    spec = fast_spec()
    plain = run_spec(spec)
    monitored = run_spec(spec, monitors=MonitorSuite())
    plain_dict = plain.to_dict()
    monitored_dict = monitored.to_dict()
    assert monitored_dict.pop("monitor_violations") == []
    assert "monitor_violations" not in plain_dict  # unmonitored: omitted
    assert monitored_dict == plain_dict


def test_monitored_result_round_trips():
    result = run_spec(fast_spec(), monitors=MonitorSuite())
    reloaded = RunResult.from_dict(result.to_dict())
    assert reloaded.monitor_violations == []
    assert reloaded.to_dict() == result.to_dict()


def test_mutation_oblivious_pick_trips_conflict_monitor(monkeypatch):
    """Degrade Algorithm 3 to a pure fairness pick: the scheduler now
    dispatches tasks into the refreshed bank without flagging fallbacks,
    and the conflict monitor must notice."""
    monkeypatch.setattr(
        RefreshAwareScheduler, "pick_next_task", CfsScheduler.pick_next_task
    )
    result = run_spec(fast_spec(), monitors=MonitorSuite())
    conflicts = [
        v for v in result.monitor_violations if v.monitor == "scheduler_conflict"
    ]
    assert conflicts, "refresh-oblivious picks went unnoticed"
    assert all("without an eta_thresh fallback" in v.message for v in conflicts)


def test_mutation_short_stretch_trips_stretch_monitor(monkeypatch):
    """Break Algorithm 1 by planning one refresh command too few per
    stretch: rows are no longer all covered once per tREFW.  The monitor
    recomputes the expected count from timing alone, so it trips."""
    orig = SameBankSequential._plan_batches

    def short_plan(self):
        orig(self)
        self._commands_per_bank -= 1

    monkeypatch.setattr(SameBankSequential, "_plan_batches", short_plan)
    result = run_spec(fast_spec(), monitors=MonitorSuite())
    stretch = [
        v for v in result.monitor_violations if v.monitor == "refresh_stretch"
    ]
    assert stretch, "a too-short refresh stretch went unnoticed"
    assert any("expected" in v.message for v in stretch)


def test_strict_mode_aborts_on_mutated_run(monkeypatch):
    monkeypatch.setattr(
        RefreshAwareScheduler, "pick_next_task", CfsScheduler.pick_next_task
    )
    with pytest.raises(MonitorError, match="scheduler_conflict"):
        run_spec(fast_spec(), monitors=MonitorSuite(strict=True))


def test_eta_thresh_fallbacks_are_not_violations():
    """With a tight eta_thresh the scheduler legitimately falls back to
    conflicted picks; those are tallied, never flagged."""
    from dataclasses import replace

    base = fast_spec()
    config = replace(base.config, os=replace(base.config.os, eta_thresh=1))
    spec = fast_spec(config=config)
    suite = MonitorSuite()
    result = run_spec(spec, monitors=suite)
    assert result.monitor_violations == []
    summary = suite.summary()
    assert summary["scheduler_conflict"]["fallback_picks"] > 0
    assert result.scheduler_fallback_picks >= (
        summary["scheduler_conflict"]["fallback_picks"]
    )


def test_suite_shares_a_telemetry_hub_with_other_sinks():
    """Monitors coexist with user sinks on one hub (the CLI wiring)."""
    from repro.core.simulator import build_system_from_spec
    from repro.telemetry import RingBufferSink

    spec = fast_spec()
    telemetry = Telemetry()
    ring = telemetry.subscribe(RingBufferSink(capacity=64))
    suite = MonitorSuite().attach(telemetry)
    system = build_system_from_spec(spec, telemetry=telemetry)
    suite.bind(system)
    system.run(
        num_windows=spec.num_windows, warmup_windows=spec.warmup_windows
    )
    suite.finish(system.engine.now)
    assert suite.violations() == []
    assert ring.emitted > 0
