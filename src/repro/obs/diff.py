"""Cross-run diffing of result/metrics JSON with per-path tolerances.

Two runs of the same :class:`~repro.core.runspec.RunSpec` must agree
*exactly* — the simulator is deterministic, so any drift is a bug.  Runs
of *different* code versions, however, legitimately differ in artifact
fields (wall times, host info), and a reviewer often wants "counts exact,
derived floats within 1e-9".  :func:`diff_payloads` supports both: exact
by default, loosened per-path via :class:`ToleranceRule` glob patterns.

Severity is ternary, mapping onto process exit codes:

====================  ===========================================  =====
Outcome               Meaning                                      exit
====================  ===========================================  =====
``identical``         every leaf equal                             0
``within_tolerance``  differences exist, all covered by a rule     1
``regression``        at least one difference outside every rule   2
====================  ===========================================  =====
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Optional

from repro.errors import ConfigError

#: Sentinel for "key absent on this side" (distinct from an explicit null).
_MISSING = object()


@dataclass(frozen=True)
class ToleranceRule:
    """Allow numeric drift on paths matching ``pattern`` (fnmatch glob).

    A numeric difference ``|a - b|`` is acceptable when it is within
    ``abs_tol`` **or** within ``rel_tol * max(|a|, |b|)``.  Non-numeric
    differences never match a tolerance rule.
    """

    pattern: str
    rel_tol: float = 0.0
    abs_tol: float = 0.0

    def covers(self, path: str) -> bool:
        return fnmatchcase(path, self.pattern)

    def allows(self, a, b) -> bool:
        if isinstance(a, bool) or isinstance(b, bool):
            return False  # bools are ints to Python; treat as categorical
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        delta = abs(a - b)
        return delta <= self.abs_tol or delta <= self.rel_tol * max(abs(a), abs(b))


@dataclass(frozen=True)
class Difference:
    """One diverging leaf path."""

    path: str
    a: object
    b: object
    status: str  # "within_tolerance" | "regression"

    def __str__(self) -> str:
        a = "<missing>" if self.a is _MISSING else repr(self.a)
        b = "<missing>" if self.b is _MISSING else repr(self.b)
        return f"{self.path}: {a} != {b} [{self.status}]"


@dataclass
class DiffResult:
    """Outcome of comparing two payloads."""

    differences: list[Difference] = field(default_factory=list)
    leaves_compared: int = 0

    @property
    def regressions(self) -> list[Difference]:
        return [d for d in self.differences if d.status == "regression"]

    @property
    def tolerated(self) -> list[Difference]:
        return [d for d in self.differences if d.status == "within_tolerance"]

    @property
    def status(self) -> str:
        if not self.differences:
            return "identical"
        if self.regressions:
            return "regression"
        return "within_tolerance"

    @property
    def exit_code(self) -> int:
        return {"identical": 0, "within_tolerance": 1, "regression": 2}[
            self.status
        ]

    def report(self) -> str:
        lines = [
            f"{self.status}: {self.leaves_compared} leaves compared, "
            f"{len(self.tolerated)} within tolerance, "
            f"{len(self.regressions)} regressions"
        ]
        lines.extend(f"  {d}" for d in self.differences)
        return "\n".join(lines)


def _flatten(value, path: str, out: dict) -> None:
    """Leaf paths: dict keys joined with ``.``, list items by index."""
    if isinstance(value, dict):
        if not value:
            out[path] = value  # empty containers are leaves
            return
        for key in value:
            _flatten(value[key], f"{path}.{key}" if path else str(key), out)
    elif isinstance(value, list):
        if not value:
            out[path] = value
            return
        for index, item in enumerate(value):
            _flatten(item, f"{path}.{index}" if path else str(index), out)
    else:
        out[path] = value


def diff_payloads(
    a, b, rules: Optional[list[ToleranceRule]] = None
) -> DiffResult:
    """Compare two JSON-able payloads leaf by leaf."""
    rules = rules or []
    flat_a: dict = {}
    flat_b: dict = {}
    _flatten(a, "", flat_a)
    _flatten(b, "", flat_b)

    result = DiffResult()
    for path in sorted(flat_a.keys() | flat_b.keys()):
        result.leaves_compared += 1
        va = flat_a.get(path, _MISSING)
        vb = flat_b.get(path, _MISSING)
        if va is _MISSING or vb is _MISSING:
            # Structural divergence is never tolerable: a missing path
            # means the two runs disagree about what was even measured.
            result.differences.append(Difference(path, va, vb, "regression"))
            continue
        # ``True == 1`` in Python; keep bools categorical so a flag
        # flipping type is reported rather than silently equal.
        if va == vb and isinstance(va, bool) == isinstance(vb, bool):
            continue
        status = "regression"
        for rule in rules:
            if rule.covers(path) and rule.allows(va, vb):
                status = "within_tolerance"
                break
        result.differences.append(Difference(path, va, vb, status))
    return result


def diff_files(
    path_a, path_b, rules: Optional[list[ToleranceRule]] = None
) -> DiffResult:
    """Compare two JSON files (result, metrics, or profile payloads).

    A file that is not one whole JSON document raises
    :class:`~repro.errors.ConfigError` naming it.
    """
    return diff_payloads(_load_json(path_a), _load_json(path_b), rules)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # torn, not JSON, or not UTF-8
        raise ConfigError(f"{path}: not a whole JSON document ({exc})") from None
