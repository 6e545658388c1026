"""Windowed timeseries sampling: serialization and live sampling on a run."""

import json

import pytest

from repro.core.results import RunResult
from repro import api
from repro.core.simulator import make_run_spec
from repro.errors import ConfigError
from repro.telemetry import Timeseries, TimeseriesSample

FAST = dict(refresh_scale=1024, num_windows=0.5, warmup_windows=0.0)


@pytest.fixture(scope="module")
def sampled_result():
    return api.run("WL-6", "all_bank", sample_windows=8, **FAST)


def test_sampler_attaches_timeseries(sampled_result):
    ts = sampled_result.timeseries
    assert ts is not None
    # 0.5 windows measured at 8 samples/window -> 4 intervals.
    assert len(ts.samples) == 4
    times = ts.metric("t")
    assert times == sorted(times)
    assert all(
        times[i + 1] - times[i] == ts.interval_cycles
        for i in range(len(times) - 1)
    )


def test_samples_carry_plausible_rates(sampled_result):
    ts = sampled_result.timeseries
    assert all(s.ipc > 0 for s in ts.samples)
    assert all(0.0 <= s.refresh_stall_fraction <= 1.0 for s in ts.samples)
    assert all(s.queue_depth >= 0 for s in ts.samples)
    assert sum(ts.metric("instructions")) > 0


def test_run_result_round_trips_timeseries(sampled_result):
    payload = json.loads(json.dumps(sampled_result.to_dict()))
    reloaded = RunResult.from_dict(payload)
    assert reloaded.timeseries == sampled_result.timeseries


def test_unsampled_run_has_no_timeseries():
    result = api.run("WL-6", "all_bank", **FAST)
    assert result.timeseries is None
    reloaded = RunResult.from_dict(result.to_dict())
    assert reloaded.timeseries is None


def test_timeseries_round_trip():
    ts = Timeseries(
        interval_cycles=100,
        samples=[
            TimeseriesSample(
                t=100, instructions=50, ipc=0.5, reads_completed=10,
                refresh_stall_fraction=0.2, queue_depth=3,
            )
        ],
    )
    assert Timeseries.from_dict(ts.to_dict()) == ts


def test_timeseries_rejects_malformed_payloads():
    with pytest.raises(ConfigError, match="expected a dict"):
        Timeseries.from_dict([1, 2])
    with pytest.raises(ConfigError, match="expected a dict"):
        Timeseries.from_dict({"interval_cycles": 1, "samples": [3]})
    with pytest.raises(ConfigError, match="malformed payload"):
        Timeseries.from_dict({"interval_cycles": 1, "samples": 3})


def test_unknown_metric_rejected():
    with pytest.raises(ConfigError, match="unknown timeseries metric"):
        Timeseries(interval_cycles=1).metric("latency")


def test_sample_windows_validated_in_spec():
    with pytest.raises(ConfigError, match="sample_windows"):
        make_run_spec("WL-6", "all_bank", sample_windows=0, **FAST)


def test_sampler_is_exact_inside_a_folded_compute_chain():
    """Sampling ticks landing mid-fast-forward must report the same
    instruction counts the one-event-per-gap schedule would have.

    The core folds consecutive pure-compute gaps into a single engine
    event; the sampler's ``sync_accounting`` call linearizes the lazy
    credits.  With 50-cycle gaps of 100 instructions each, the exact
    cumulative count at any boundary ``t`` is ``100 * (t // 50)`` — the
    170-cycle sampling interval never divides 50, so every tick lands
    strictly inside a folded gap chain.
    """
    from types import SimpleNamespace

    from repro.config.dram_configs import DramOrganization
    from repro.config.system_configs import default_system_config
    from repro.core.engine import Engine
    from repro.cpu.core import Core
    from repro.dram.address import AddressMapping
    from repro.dram.controller import MemoryController
    from repro.dram.timing import DramTiming
    from repro.os.task import Task
    from repro.telemetry.timeseries import TimeseriesSampler
    from repro.workloads.generator import MemAccess

    class ComputeWorkload:
        name = "compute"
        mlp = 1

        def next_access(self, task):
            return MemAccess(100, 50, None)  # 100 instr over a 50-cycle gap

    config = default_system_config(refresh_scale=1024)
    timing = DramTiming.from_config(config)
    organization = DramOrganization()
    mapping = AddressMapping(organization, total_rows_per_bank=64)
    engine = Engine()
    controller = MemoryController(engine, timing, organization, mapping)
    core = Core(0, engine, controller)
    task = Task("bench", ComputeWorkload(), task_id=0)
    system = SimpleNamespace(
        engine=engine, cores=[core], tasks=[task], controller=controller,
        window_cycles=1360,
    )

    sampler = TimeseriesSampler(system, 8)
    assert sampler.interval == 170
    core.run_task(task)
    sampler.start(0, 1360)
    engine.run_until(1360)

    cumulative = 0
    for sample in sampler.result().samples:
        cumulative += sample.instructions
        assert cumulative == 100 * (sample.t // 50)

    # The fast-forward actually happened: the only fired engine events
    # are the 8 sampler ticks — none of the 27 elapsed compute gaps
    # scheduled its own event.
    assert engine.events_processed == 8

    # And sampling did not disturb the accounting the run ends with.
    core.sync_accounting(engine.now)
    assert task.stats.instructions == 100 * (1360 // 50)
