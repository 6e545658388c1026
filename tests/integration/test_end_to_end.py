"""End-to-end integration tests for the full simulated system.

These encode the paper's qualitative claims as assertions, on a scaled-down
configuration (refresh_scale=512) so the suite stays fast.
"""

import pytest

from repro import api, compare_scenarios
from repro.units import ms

FAST = dict(num_windows=1.0, warmup_windows=0.25, refresh_scale=512)


@pytest.fixture(scope="module")
def wl6_results():
    return compare_scenarios(
        "WL-6",
        ["no_refresh", "all_bank", "per_bank", "codesign", "same_bank_hw_only"],
        num_windows=1.0,
        warmup_windows=0.25,
        refresh_scale=512,
    )


class TestSchemeOrdering:
    """Figure 3 / Figure 10's qualitative ordering."""

    def test_no_refresh_is_upper_bound(self, wl6_results):
        ideal = wl6_results["no_refresh"].hmean_ipc
        for name, result in wl6_results.items():
            assert result.hmean_ipc <= ideal * 1.02, name

    def test_per_bank_beats_all_bank(self, wl6_results):
        assert (
            wl6_results["per_bank"].hmean_ipc > wl6_results["all_bank"].hmean_ipc
        )

    def test_codesign_beats_per_bank(self, wl6_results):
        assert (
            wl6_results["codesign"].hmean_ipc > wl6_results["per_bank"].hmean_ipc
        )

    def test_hw_only_same_bank_is_not_enough(self, wl6_results):
        """Section 4.2: the same-bank schedule only pays off with the OS
        changes; alone it hammers one bank and loses to round-robin."""
        assert (
            wl6_results["same_bank_hw_only"].hmean_ipc
            < wl6_results["per_bank"].hmean_ipc
        )


class TestCodesignMechanism:
    def test_codesign_eliminates_refresh_stalls(self, wl6_results):
        codesign = wl6_results["codesign"]
        baseline = wl6_results["all_bank"]
        assert baseline.refresh_stall_fraction > 0.01
        assert codesign.refresh_stall_fraction < 0.005

    def test_scheduler_always_finds_clean_task(self, wl6_results):
        codesign = wl6_results["codesign"]
        assert codesign.scheduler_clean_picks > 0
        assert codesign.scheduler_fallback_picks == 0

    def test_codesign_reduces_memory_latency(self, wl6_results):
        assert (
            wl6_results["codesign"].avg_read_latency_mem_cycles
            < wl6_results["all_bank"].avg_read_latency_mem_cycles
        )

    def test_refresh_commands_unchanged_by_codesign(self, wl6_results):
        """The co-design reschedules refreshes, it never skips them."""
        codesign = wl6_results["codesign"]
        per_bank = wl6_results["per_bank"]
        assert codesign.refresh_commands == pytest.approx(
            per_bank.refresh_commands, rel=0.05
        )


class TestWorkloadSensitivity:
    def test_low_mpki_workload_sees_no_refresh_pain(self):
        """WL-2 (povray x8) is insensitive to refresh (Section 6.2)."""
        results = compare_scenarios(
            "WL-2", ["no_refresh", "all_bank"], **FAST
        )
        degradation = 1 - results["all_bank"].hmean_ipc / results[
            "no_refresh"
        ].hmean_ipc
        assert degradation < 0.02

    def test_high_mpki_workload_hurts_most(self):
        wl1 = compare_scenarios("WL-1", ["no_refresh", "all_bank"], **FAST)
        wl2 = compare_scenarios("WL-2", ["no_refresh", "all_bank"], **FAST)
        deg1 = 1 - wl1["all_bank"].hmean_ipc / wl1["no_refresh"].hmean_ipc
        deg2 = 1 - wl2["all_bank"].hmean_ipc / wl2["no_refresh"].hmean_ipc
        assert deg1 > deg2 + 0.05


class TestDensityScaling:
    def test_refresh_pain_grows_with_density(self):
        degradations = {}
        for density in (8, 32):
            results = compare_scenarios(
                "WL-6", ["no_refresh", "all_bank"], density_gbit=density, **FAST
            )
            degradations[density] = (
                1 - results["all_bank"].hmean_ipc / results["no_refresh"].hmean_ipc
            )
        assert degradations[32] > degradations[8]


class TestRetentionScaling:
    def test_32ms_hurts_more_than_64ms(self):
        deg = {}
        for trefw in (ms(64), ms(32)):
            results = compare_scenarios(
                "WL-6", ["no_refresh", "all_bank"], trefw_ps=trefw, **FAST
            )
            deg[trefw] = (
                1 - results["all_bank"].hmean_ipc / results["no_refresh"].hmean_ipc
            )
        assert deg[ms(32)] > deg[ms(64)]


class TestAccountingConsistency:
    def test_task_cycles_sum_to_core_time(self, wl6_results):
        result = wl6_results["codesign"]
        total_scheduled = sum(t.scheduled_cycles for t in result.tasks)
        # 2 cores, never idle (8 runnable tasks).
        assert total_scheduled == pytest.approx(2 * result.simulated_cycles, rel=0.02)

    def test_all_tasks_made_progress(self, wl6_results):
        for name, result in wl6_results.items():
            for task in result.tasks:
                assert task.instructions > 0, (name, task.name)
                assert task.quanta > 0

    def test_reads_issued_reads_completed_close(self, wl6_results):
        result = wl6_results["all_bank"]
        assert result.reads_completed > 0
        assert result.writes_completed > 0

    def test_fair_scheduling_across_tasks(self, wl6_results):
        """CFS gives equal-weight always-runnable tasks equal time."""
        from repro.core.metrics import fairness_index

        for name in ("all_bank", "codesign"):
            cycles = [t.scheduled_cycles for t in wl6_results[name].tasks]
            assert fairness_index(cycles) > 0.97, (name, cycles)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = api.run("WL-8", "codesign", **FAST)
        b = api.run("WL-8", "codesign", **FAST)
        assert a.hmean_ipc == b.hmean_ipc
        assert a.reads_completed == b.reads_completed

    def test_different_seed_different_result(self):
        a = api.run("WL-8", "codesign", seed=1, **FAST)
        b = api.run("WL-8", "codesign", seed=2, **FAST)
        assert a.hmean_ipc != b.hmean_ipc
