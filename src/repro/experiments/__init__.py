"""Experiment harness: one module per paper figure (see DESIGN.md §4).

Run a figure through :func:`repro.api.figure` (or the ``python -m
repro.experiments`` CLI), which resolve the module and call its
``run()`` entry point for you.
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
