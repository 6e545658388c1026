"""Integration tests for the experiment harness (tiny profiles)."""

import types
from dataclasses import replace

import pytest

from repro.experiments.figures import FIGURES, Figure, Row, Run, figure_specs, run_figure
from repro.experiments.runner import ExperimentProfile, SweepRunner

TINY = ExperimentProfile(
    name="tiny",
    num_windows=0.5,
    warmup_windows=0.1,
    refresh_scale=1024,
    workloads=("WL-6",),
)


@pytest.fixture(scope="module")
def runner():
    # Disk cache off: these tests assert on exact execution counts.
    return SweepRunner(TINY, jobs=1, use_cache=False)


def test_runner_memoizes(runner):
    before = runner.runs_executed
    a = runner.run("WL-6", "all_bank")
    mid = runner.runs_executed
    b = runner.run("WL-6", "all_bank")
    assert mid == before + 1
    assert runner.runs_executed == mid  # cached
    assert a is b


def test_runner_distinguishes_overrides(runner):
    runner.run("WL-6", "all_bank", density_gbit=16)
    n = runner.runs_executed
    runner.run("WL-6", "all_bank", density_gbit=24)
    assert runner.runs_executed == n + 1


def test_runner_distinguishes_same_named_scenarios(runner):
    """Custom scenarios are keyed by content, not by name (regression:
    the old memo keyed a Scenario object only by ``.name``)."""
    from repro.core.system import Scenario

    alike_a = Scenario("alike", "all_bank")
    alike_b = Scenario("alike", "per_bank")
    n = runner.runs_executed
    a = runner.run("WL-6", alike_a)
    b = runner.run("WL-6", alike_b)
    assert runner.runs_executed == n + 2
    assert a != b  # different refresh policies, different measurements


def test_runner_rejects_unserializable_override(runner):
    from repro.errors import ConfigError

    class Opaque:
        def validate(self):
            pass

    with pytest.raises(ConfigError, match="not JSON-serializable"):
        runner.run("WL-6", "all_bank", dram_timing=Opaque())


def test_figure3_shape(runner):
    result = run_figure(FIGURES["figure3"], runner)
    assert len(result.rows) == 4 * 2 * 2  # densities x retentions x schemes
    # All-bank hurts more than per-bank at 32Gb/64ms.
    assert result["32Gb", "64ms", "all_bank"] > result["32Gb", "64ms", "per_bank"]
    # 32ms hurts more than 64ms.
    assert result["32Gb", "32ms", "all_bank"] > result["32Gb", "64ms", "all_bank"]
    assert "Figure 3" in result.text


def test_figure5_shape():
    result = run_figure(FIGURES["figure5"], capacity_scale=2048)
    avg = [result.mean(f"{d}Gb", None, None) for d in (8, 16, 24, 32)]
    # Fraction on one bank grows with density (Section 3.3).
    assert avg == sorted(avg)
    assert 0 < avg[0] <= 1.0
    # mcf (1.7GB) cannot fit one 8Gb-era bank.
    assert result["8Gb", "mcf", None] < 0.5
    assert "Figure 5" in result.text


def test_figure10_rows(runner):
    result = run_figure(FIGURES["figure10"], runner)
    assert len(result.rows) == 3 * 1 * 2  # densities x workloads x schemes
    assert result.mean("32Gb", None, "codesign") > 0
    assert "Figure 10" in result.text


def test_figure11_rows(runner):
    result = run_figure(FIGURES["figure11"], runner)
    assert result["WL-6", "codesign"] < result["WL-6", "all_bank"]
    assert "Figure 11" in result.text


def test_figure14_rows(runner):
    result = run_figure(FIGURES["figure14"], runner)
    schemes = {labels[1] for labels, _ in result.rows}
    assert schemes == {"per_bank", "ooo_per_bank", "adaptive", "codesign"}
    assert result.mean(None, "codesign") >= result.mean(None, "adaptive")
    assert "Figure 14" in result.text


def test_ablation_component_study(runner):
    result = run_figure(FIGURES["ablations"], runner)
    assert (
        result["components", "full co-design (soft)"]
        > result["components", "same-bank schedule only"]
    )
    assert "Ablation" in result.text


def test_every_sweep_figure_reads_only_prefetched_runs(runner):
    """A figure's prefetch list comes from its rows, so reading the rows
    back after the prefetch simulates nothing."""
    for name in ("figure3", "figure4", "figure12", "figure15"):
        figure = FIGURES[name]
        workloads = ("WL-6",) if name == "figure15" else None
        runner.prefetch(figure_specs(figure, runner, workloads))
        executed = runner.runs_executed
        run_figure(figure, runner, workloads)
        assert runner.runs_executed == executed, name


def test_two_averaging_orders_are_kept():
    """Figures 3/4 compare workload means of hmean-IPC; Figure 15 and the
    summary lines average the per-workload ratios."""
    ipc = {("A", "x"): 1.0, ("A", "base"): 2.0, ("B", "x"): 3.0, ("B", "base"): 1.0}

    class FakeRunner:
        profile = TINY

        def spec(self, workload, scenario, **overrides):
            return (workload, scenario)

        def prefetch(self, specs):
            return 0

        def run_spec(self, spec):
            return types.SimpleNamespace(hmean_ipc=ipc[spec])

    def rows(workloads):
        return [Row(("r",), Run("x"), Run("base"), (("A", "B"),))]

    figure = Figure("f", "F", ("r", "v"), rows=rows)
    means = run_figure(replace(figure, ratio_of_means=True), FakeRunner())
    assert means["r"] == pytest.approx((1.0 + 3.0) / (2.0 + 1.0) - 1)
    ratios = run_figure(figure, FakeRunner())
    assert ratios["r"] == pytest.approx((1.0 / 2.0 - 1 + 3.0 / 1.0 - 1) / 2)


def test_report_format_table_smoke():
    from repro.experiments.report import format_table

    out = format_table(["x"], [[1], [2]])
    assert out.count("\n") == 3
