"""Where the sweep service runs a job follows from one value, ``jobs``,
which defaults to ``REPRO_JOBS`` or the CPU count."""

import argparse
import os

import pytest

from repro.__main__ import resolve_jobs
from repro.errors import ConfigError, ServiceError
from repro.experiments.cache import default_jobs
from repro.experiments.runner import SweepRunner
from repro.service import SweepService


@pytest.mark.parametrize("jobs", [0, -1])
def test_a_service_needs_at_least_one_job(jobs):
    with pytest.raises(ServiceError, match="jobs must be >= 1"):
        SweepService(jobs=jobs, use_cache=False)


@pytest.mark.parametrize("value", ["0", "-1", "four"])
def test_a_repro_jobs_that_is_not_a_whole_number_of_at_least_one_is_named(
    value, monkeypatch
):
    monkeypatch.setenv("REPRO_JOBS", value)
    with pytest.raises(ConfigError, match=f"REPRO_JOBS must be .* got {value!r}"):
        default_jobs()
    with pytest.raises(ConfigError, match="REPRO_JOBS"):
        SweepRunner(use_cache=False)
    # --jobs wins over the variable, which is then not read.
    assert resolve_jobs(argparse.ArgumentParser(), 2) == 2


def test_repro_jobs_sets_the_default_worker_count(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    assert SweepRunner(use_cache=False).jobs == 3
    assert resolve_jobs(argparse.ArgumentParser(), None) == 3
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() == (os.cpu_count() or 1)
