"""Unit tests for the experiment CLI plumbing."""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.figures import FIGURES
from repro.experiments.runner import (
    FULL_PROFILE,
    QUICK_PROFILE,
    SweepRunner,
    active_profile,
)


def test_every_figure_registered():
    expected = {f"figure{n}" for n in (3, 4, 5, 9, 10, 11, 12, 13, 14, 15)}
    expected.add("ablations")
    assert set(FIGURES) == expected


def test_cli_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_cli_runs_figure5(capsys):
    assert main(["figure5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "average @ 32Gb" in out


def test_profiles():
    assert QUICK_PROFILE.refresh_scale > FULL_PROFILE.refresh_scale
    assert QUICK_PROFILE.num_windows <= FULL_PROFILE.num_windows
    assert active_profile().name in ("quick", "full")


def test_profile_env_selection(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "full")
    assert active_profile() is FULL_PROFILE
    monkeypatch.setenv("REPRO_PROFILE", "quick")
    assert active_profile() is QUICK_PROFILE
    monkeypatch.setenv("REPRO_PROFILE", "bogus")
    assert active_profile() is QUICK_PROFILE


def test_runner_uses_profile_workloads():
    runner = SweepRunner(QUICK_PROFILE)
    assert runner.profile.workloads == tuple(
        f"WL-{i}" for i in range(1, 11)
    )
