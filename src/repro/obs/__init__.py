"""Observability *consumption*: invariant monitors, self-profiling, diffs.

``repro.telemetry`` (PR 3) is the emission side — typed events, metric
snapshots, sinks.  This package is the consumption side, the tooling
that turns those streams into answers:

:mod:`repro.obs.monitors`
    Online invariant monitors over the typed event stream — the paper's
    stream-checkable claims (same-bank stretch shape, no service inside
    a refresh window, refresh-aware picks, partition containment)
    checked while the simulation runs, collected as structured
    :class:`~repro.obs.monitors.MonitorViolation` records on the
    :class:`~repro.core.results.RunResult` (CLI: ``--monitors[=strict]``).
:mod:`repro.obs.profiler`
    Engine dispatch self-profiling — per-callback-owner event counts
    (deterministic) and cumulative wall time (artifact-only), exported
    via ``python -m repro ... --profile report.json``.
:mod:`repro.obs.diff`
    Cross-run comparison of result/metrics/timeseries JSON with per-path
    tolerance rules (CLI: ``python -m repro.obs diff a.json b.json``).
:mod:`repro.obs.sweepdiff`
    Sweep-level comparison of two result directories, entries matched by
    spec content hash (CLI: ``python -m repro.obs diff DIR_A DIR_B``).

Unlike the simulator packages, ``repro.obs`` is *not* a pure package:
the profiler reads the wall clock (that is its job).  Nothing in here
feeds back into simulation state — observation never changes the result.
"""

from repro.obs.diff import DiffResult, Difference, ToleranceRule, diff_files, diff_payloads
from repro.obs.monitors import (
    AllocationPartitionMonitor,
    Monitor,
    MonitorSuite,
    MonitorViolation,
    RefreshOverlapMonitor,
    RefreshStretchMonitor,
    SchedulerConflictMonitor,
    default_monitors,
)
from repro.obs.profiler import EngineProfiler
from repro.obs.sweepdiff import SweepDiffResult, SweepEntry, diff_sweep_dirs

__all__ = [
    "AllocationPartitionMonitor",
    "DiffResult",
    "Difference",
    "EngineProfiler",
    "Monitor",
    "MonitorSuite",
    "MonitorViolation",
    "RefreshOverlapMonitor",
    "RefreshStretchMonitor",
    "SchedulerConflictMonitor",
    "SweepDiffResult",
    "SweepEntry",
    "ToleranceRule",
    "default_monitors",
    "diff_files",
    "diff_payloads",
    "diff_sweep_dirs",
]
