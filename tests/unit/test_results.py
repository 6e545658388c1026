"""Unit tests for result containers and the report formatter."""

import pytest

from repro.core.results import RunResult, TaskResult
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.address import DramCoordinate
from repro.experiments.report import format_percent, format_table


def make_task_result(name="t", instructions=1000, cycles=2000):
    return TaskResult(
        task_id=0,
        name=name,
        instructions=instructions,
        scheduled_cycles=cycles,
        quanta=4,
        reads_completed=10,
        avg_read_latency_cycles=100.0,
        refresh_stall_cycles=5,
    )


def test_task_result_ipc():
    assert make_task_result().ipc == 0.5
    assert make_task_result(cycles=0).ipc == 0.0


def test_run_result_hmean():
    result = RunResult(
        scenario="s", workload="w", density_gbit=32, trefw_ms=64.0,
        simulated_cycles=1,
        tasks=[make_task_result(cycles=1000), make_task_result(cycles=4000)],
    )
    # IPCs 1.0 and 0.25 -> harmonic mean 0.4.
    assert result.hmean_ipc == pytest.approx(0.4)


def test_latency_unit_conversion():
    result = RunResult(
        scenario="s", workload="w", density_gbit=32, trefw_ms=64.0,
        simulated_cycles=1, avg_read_latency_cycles=400.0, cpu_per_mem_cycle=4,
    )
    assert result.avg_read_latency_mem_cycles == 100.0


def test_refresh_stall_fraction():
    result = RunResult(
        scenario="s", workload="w", density_gbit=32, trefw_ms=64.0,
        simulated_cycles=1, reads_completed=200, refresh_stalled_reads=20,
    )
    assert result.refresh_stall_fraction == 0.1
    empty = RunResult(
        scenario="s", workload="w", density_gbit=32, trefw_ms=64.0,
        simulated_cycles=1,
    )
    assert empty.refresh_stall_fraction == 0.0


def test_summary_contains_key_fields():
    result = RunResult(
        scenario="codesign", workload="WL-6", density_gbit=32, trefw_ms=64.0,
        simulated_cycles=100, tasks=[make_task_result()],
    )
    text = result.summary()
    assert "codesign" in text and "WL-6" in text and "hmean IPC" in text


def test_request_latency_requires_completion():
    coord = DramCoordinate(0, 0, 0, 0, 0)
    request = MemoryRequest(RequestType.READ, 0, coord)
    with pytest.raises(ValueError):
        _ = request.latency


def test_format_table_alignment():
    table = format_table(["a", "bb"], [[1, 2.5], [30, "x"]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "2.500" in table
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # all rows aligned


def test_format_percent():
    assert format_percent(0.162) == "+16.2%"
    assert format_percent(-0.05) == "-5.0%"


def test_monitor_violations_round_trip():
    from repro.obs.monitors import MonitorViolation

    result = RunResult(
        scenario="codesign", workload="WL-6", density_gbit=32, trefw_ms=64.0,
        simulated_cycles=100,
        monitor_violations=[
            MonitorViolation(
                monitor="refresh_stretch", time=5, message="short stretch",
                context={"bank": 2},
            )
        ],
    )
    reloaded = RunResult.from_dict(result.to_dict())
    assert reloaded.monitor_violations == result.monitor_violations


def test_unmonitored_result_omits_violation_key():
    result = RunResult(
        scenario="codesign", workload="WL-6", density_gbit=32, trefw_ms=64.0,
        simulated_cycles=100,
    )
    data = result.to_dict()
    assert "monitor_violations" not in data
    reloaded = RunResult.from_dict(data)
    assert reloaded.monitor_violations is None


def test_monitored_clean_result_keeps_empty_list():
    result = RunResult(
        scenario="codesign", workload="WL-6", density_gbit=32, trefw_ms=64.0,
        simulated_cycles=100, monitor_violations=[],
    )
    data = result.to_dict()
    assert data["monitor_violations"] == []
    assert RunResult.from_dict(data).monitor_violations == []
