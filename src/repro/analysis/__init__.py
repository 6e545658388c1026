"""Repo-specific static analysis: determinism & purity linting.

The run pipeline treats a simulation as a pure, content-hashed function
``RunSpec -> RunResult`` (see :mod:`repro.core.runspec`): the disk cache
and the ``ProcessPoolExecutor`` fan-out are only sound if nothing in the
simulator depends on process-global state, wall-clock time, or unseeded
randomness, and if every event ordering is fully deterministic.  Those
invariants used to rest on convention; this package makes them
machine-checked.

Entry points
------------

``python -m repro.analysis [paths] [--format json|sarif] [--baseline ...]``
    CLI used by CI and developers (see :mod:`repro.analysis.cli`).
:func:`analyze_paths`
    Library API: run every registered rule over a set of files/dirs.
:func:`analyze_project`
    Same, but returns the full :class:`AnalysisReport` (findings and
    run statistics).

The rule catalog (``RPR001`` .. ``RPR015``) lives in
:mod:`repro.analysis.rules`; per-file rules see one AST at a time while
project rules (``RPR011+``) run over the whole-program model in
:mod:`repro.analysis.model`.  Suppressions use ``# repro: noqa[CODE]``
comments and a checked-in baseline file grandfathers pre-existing
findings (:mod:`repro.analysis.baseline`); RPR015 audits both for
staleness.
"""

from __future__ import annotations

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import (
    AnalysisReport,
    AnalysisStats,
    FileContext,
    Finding,
    ProjectContext,
    ProjectRule,
    Rule,
    analyze_file,
    analyze_paths,
    analyze_project,
)
from repro.analysis.registry import all_rules, register

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "AnalysisStats",
    "FileContext",
    "Finding",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_project",
    "register",
]
