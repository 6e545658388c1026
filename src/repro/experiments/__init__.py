"""Experiment harness: the sweep runner, its result cache, and the paper's
figures as data (see DESIGN.md §4).

Run a figure through :func:`repro.api.figure` or the ``python -m
repro.experiments`` CLI; both look it up in
:data:`repro.experiments.figures.FIGURES`, which this package does not
import eagerly.
"""

from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.runner import (
    ExperimentProfile,
    FULL_PROFILE,
    QUICK_PROFILE,
    active_profile,
    default_jobs,
    SweepRunner,
)

__all__ = [
    "ExperimentProfile",
    "FULL_PROFILE",
    "QUICK_PROFILE",
    "active_profile",
    "default_jobs",
    "ResultCache",
    "default_cache_dir",
    "SweepRunner",
]
