"""Sweep-level diffing: directory vs directory, matched by spec hash.

A sweep directory is any directory of ``*.json`` spec+result entries —
what ``python -m repro sweep --out DIR``, ``python -m repro submit --out
DIR`` and the result cache itself write (the layouts share one payload
shape, ``{"spec": ..., "result": ...}``; see
:func:`repro.experiments.cache.read_result_entry`).  Because entries are
keyed by the spec's *content*, two directories produced by different
machines, runners, or sweep services can be compared without any
filename or ordering convention: a Figure-9-scale sweep regresses in one
command.

Per matched spec, the result payloads diff leaf-by-leaf with the same
:class:`~repro.obs.diff.ToleranceRule` machinery as single-file diffs.
A spec present on only one side is *unmatched* — always a regression,
like a missing leaf path: the two sweeps disagree about what was even
simulated.

Exit-code mapping follows :class:`~repro.obs.diff.DiffResult`:
0 identical everywhere, 1 differences but all within tolerance,
2 regression (any leaf regression or any unmatched spec).
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.diff import DiffResult, ToleranceRule, diff_payloads


@dataclass(frozen=True)
class SweepEntry:
    """One parsed spec+result entry of a sweep directory."""

    key: str  # spec content hash
    label: str  # "<workload>/<scenario>" for human-readable verdicts
    path: pathlib.Path
    result: dict


@dataclass
class SweepDiffResult:
    """Outcome of comparing two sweep directories."""

    #: Per matched spec: ``(entry_a, entry_b, DiffResult)``.
    matched: list[tuple[SweepEntry, SweepEntry, DiffResult]] = field(
        default_factory=list
    )
    unmatched_a: list[SweepEntry] = field(default_factory=list)
    unmatched_b: list[SweepEntry] = field(default_factory=list)
    #: Files that were not parseable spec+result entries, per side.
    skipped_a: list[pathlib.Path] = field(default_factory=list)
    skipped_b: list[pathlib.Path] = field(default_factory=list)

    @property
    def status(self) -> str:
        if (
            self.unmatched_a
            or self.unmatched_b
            or any(d.regressions for _, _, d in self.matched)
        ):
            return "regression"
        if any(d.differences for _, _, d in self.matched):
            return "within_tolerance"
        return "identical"

    @property
    def exit_code(self) -> int:
        return {"identical": 0, "within_tolerance": 1, "regression": 2}[
            self.status
        ]

    def report(self) -> str:
        lines = [
            f"{self.status}: {len(self.matched)} specs matched, "
            f"{len(self.unmatched_a)} only in A, "
            f"{len(self.unmatched_b)} only in B"
        ]
        for entry_a, _entry_b, diff in sorted(
            self.matched, key=lambda item: item[0].key
        ):
            lines.append(
                f"  {entry_a.key[:12]} {entry_a.label}: {diff.status} "
                f"({len(diff.differences)} differing leaves, "
                f"{len(diff.regressions)} regressions)"
            )
            for difference in diff.regressions:
                lines.append(f"    {difference}")
        for side, entries in (("A", self.unmatched_a), ("B", self.unmatched_b)):
            for entry in sorted(entries, key=lambda e: e.key):
                lines.append(
                    f"  {entry.key[:12]} {entry.label}: only in {side} "
                    f"({entry.path})"
                )
        skipped = len(self.skipped_a) + len(self.skipped_b)
        if skipped:
            lines.append(f"  ({skipped} non-entry JSON files skipped)")
        return "\n".join(lines)


def _entry_label(spec_payload: dict) -> str:
    workload = spec_payload.get("workload_name", "?")
    scenario = spec_payload.get("scenario", {})
    scenario_name = (
        scenario.get("name", "?") if isinstance(scenario, dict) else "?"
    )
    return f"{workload}/{scenario_name}"


def index_sweep_dir(
    directory: str | os.PathLike,
) -> tuple[dict[str, SweepEntry], list[pathlib.Path]]:
    """Scan *directory* recursively for spec+result entries.

    Returns ``(entries by spec hash, skipped files)``.  The hash is
    recomputed from the embedded spec payload — filenames are never
    trusted — so cache shards and flat sweep outputs index identically.
    A duplicate hash (same spec stored twice) keeps the first occurrence
    in sorted-path order and skips the rest.
    """
    from repro.core.runspec import RunSpec
    from repro.errors import ReproError
    from repro.experiments.cache import read_result_entry

    directory = pathlib.Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    entries: dict[str, SweepEntry] = {}
    skipped: list[pathlib.Path] = []
    for path in sorted(directory.rglob("*.json")):
        try:
            spec_payload, result_payload = read_result_entry(path)
            key = RunSpec.from_dict(spec_payload).content_hash()
        except (OSError, ValueError, json.JSONDecodeError, ReproError):
            skipped.append(path)
            continue
        if key not in entries:
            entries[key] = SweepEntry(
                key=key,
                label=_entry_label(spec_payload),
                path=path,
                result=result_payload,
            )
        else:
            skipped.append(path)
    return entries, skipped


def diff_sweep_dirs(
    dir_a: str | os.PathLike,
    dir_b: str | os.PathLike,
    rules: Optional[list[ToleranceRule]] = None,
) -> SweepDiffResult:
    """Compare two sweep directories spec-by-spec."""
    entries_a, skipped_a = index_sweep_dir(dir_a)
    entries_b, skipped_b = index_sweep_dir(dir_b)
    outcome = SweepDiffResult(skipped_a=skipped_a, skipped_b=skipped_b)
    for key in sorted(entries_a.keys() | entries_b.keys()):
        entry_a = entries_a.get(key)
        entry_b = entries_b.get(key)
        if entry_a is None:
            outcome.unmatched_b.append(entry_b)
        elif entry_b is None:
            outcome.unmatched_a.append(entry_a)
        else:
            outcome.matched.append(
                (
                    entry_a,
                    entry_b,
                    diff_payloads(entry_a.result, entry_b.result, rules),
                )
            )
    return outcome
