"""Cross-cutting consistency checks on RunResult across scenarios."""

import pytest

from repro import api

FAST = dict(num_windows=0.5, warmup_windows=0.1, refresh_scale=512)


@pytest.fixture(scope="module")
def result():
    return api.run("WL-6", "codesign", **FAST)


def test_simulated_cycles_matches_request(result):
    # 0.5 windows at refresh_scale 512 = 0.5 * 400_000 CPU cycles.
    assert result.simulated_cycles == 200_000


def test_task_reads_sum_close_to_controller_total(result):
    task_reads = sum(t.reads_completed for t in result.tasks)
    # Task counters include stale completions around switches; controller
    # counts exactly once per request — they agree within in-flight slack.
    assert abs(task_reads - result.reads_completed) <= 64


def test_latency_fields_consistent(result):
    assert result.avg_read_latency_cycles > 0
    assert result.avg_read_latency_mem_cycles == pytest.approx(
        result.avg_read_latency_cycles / result.cpu_per_mem_cycle
    )
    for task in result.tasks:
        if task.reads_completed:
            # Unloaded row-hit floor: tCL + tBL = 60 CPU cycles.
            assert task.avg_read_latency_cycles >= 60


def test_quanta_counts(result):
    # 0.5 windows = 8 quanta per core; each task runs >= 1 quantum.
    total_quanta = sum(t.quanta for t in result.tasks)
    assert total_quanta >= 16
    assert all(t.quanta >= 1 for t in result.tasks)


def test_bus_utilization_sane(result):
    assert 0.0 <= result.bus_utilization <= 1.0


def test_energy_attached_and_consistent(result):
    energy = result.energy
    assert energy.total_mj > 0
    assert energy.background_mj > 0
    parts = (
        energy.background_mj + energy.activate_mj + energy.read_mj
        + energy.write_mj + energy.refresh_mj
    )
    assert energy.total_mj == pytest.approx(parts)


def test_trefw_reported_in_ms(result):
    assert result.trefw_ms == 64.0
    assert result.density_gbit == 32
