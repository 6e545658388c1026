"""Lint engine: file discovery, AST contexts, noqa handling, rule driving.

One :class:`FileContext` is built per file — it owns the parsed tree, the
module name derived from the path, and an import-alias table so rules can
resolve ``t.time()`` back to ``time.time`` — and every enabled rule runs
against it.  Findings landing on a line carrying a matching
``# repro: noqa[CODE]`` comment token are dropped before reporting.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator, Optional

#: Code reserved for files the analyzer itself cannot process.
PARSE_ERROR_CODE = "RPR000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class Rule:
    """Base class for lint rules.

    Subclasses set ``code``/``name``/``description`` and implement
    :meth:`check`, yielding :class:`Finding` objects.  Use
    :meth:`finding` to stamp the code and location consistently.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "FileContext", node: ast.AST, message: str) -> Finding:
        return Finding(
            code=self.code,
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules (RPR011+).

    Project rules run once over the assembled
    :class:`~repro.analysis.model.project.ProjectModel` instead of once
    per file.  ``audit = True`` marks rules that must run after every
    other rule because they inspect the raw finding set itself (RPR015
    stale-suppression audit).
    """

    audit: bool = False

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        return iter(())

    def check_project(self, pctx: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            code=self.code, path=path, line=line, col=col, message=message
        )


class ProjectContext:
    """Everything a project rule needs: the model plus run-level state."""

    def __init__(
        self,
        model,
        config,
        raw_findings: Optional[list[Finding]] = None,
        known_codes: frozenset[str] = frozenset(),
    ):
        self.model = model
        self.config = config
        #: Raw (pre-noqa) findings of every non-audit rule; only
        #: populated for audit rules.
        self.raw_findings = raw_findings if raw_findings is not None else []
        self.known_codes = known_codes


def _derive_module_name(path: Path) -> str:
    """Dotted module name for *path*, anchored at the ``repro`` package.

    ``src/repro/core/engine.py`` -> ``repro.core.engine``.  Files outside
    a ``repro`` tree (e.g. test fixtures) fall back to their stem, so
    package-scoped rules simply don't bind there unless the fixture is
    laid out like the package.
    """
    parts = list(path.resolve().parts)
    stem_parts = parts[:-1] + [path.stem]
    if "repro" in stem_parts:
        anchor = len(stem_parts) - 1 - stem_parts[::-1].index("repro")
        dotted = [p for p in stem_parts[anchor:] if p != "__init__"]
        return ".".join(dotted) if dotted else "repro"
    return path.stem


class FileContext:
    """Everything a rule needs to inspect one source file."""

    def __init__(
        self,
        path: Path,
        source: str,
        tree: ast.Module,
        config,
    ):
        self.path = path
        self.display_path = str(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config
        self.module_name = _derive_module_name(path)
        self.imports = self._collect_imports(tree)

    # -- import-aware name resolution -------------------------------------------

    @staticmethod
    def _collect_imports(tree: ast.Module) -> dict[str, str]:
        table: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    table[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return table

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Literal dotted text of a Name/Attribute chain (no resolution)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain through the import table.

        ``t.time`` with ``import time as t`` resolves to ``time.time``;
        ``count(...)`` with ``from itertools import count`` resolves to
        ``itertools.count``.
        """
        dotted = self.dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved_head = self.imports.get(head, head)
        return f"{resolved_head}.{rest}" if rest else resolved_head

    def in_packages(self, prefixes: tuple[str, ...]) -> bool:
        from repro.analysis.config import module_in

        return module_in(self.module_name, prefixes)


# -- drivers ---------------------------------------------------------------------


@dataclass
class AnalysisStats:
    """Run-level accounting for the ``--stats`` line and tests."""

    files_total: int = 0
    rules_run: int = 0
    wall_time_s: float = 0.0

    def render(self) -> str:
        return (
            f"stats: {self.rules_run} rule(s) over {self.files_total} "
            f"file(s) in {self.wall_time_s:.2f}s"
        )


@dataclass
class AnalysisReport:
    """Findings plus the run statistics behind them."""

    findings: list[Finding]
    stats: AnalysisStats


def _parse(path: Path):
    """(source, tree) or the RPR000 finding for an unreadable file."""
    try:
        source = path.read_text(encoding="utf-8")
        return (source, ast.parse(source, filename=str(path))), None
    except (OSError, SyntaxError, ValueError) as exc:
        return None, Finding(
            code=PARSE_ERROR_CODE,
            path=str(path),
            line=getattr(exc, "lineno", None) or 1,
            col=1,
            message=f"could not analyze file: {exc}",
        )


def discover_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(
                p
                for p in path.rglob("*.py")
                if not any(part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def analyze_project(paths: Iterable[Path], config) -> AnalysisReport:
    """Whole-program analysis of every ``.py`` file under *paths*.

    Per-file rules run on each parsed file; project rules then run once
    over the model assembled from every file's summary, and the audit
    rules last, over the raw finding set.
    """
    from repro.analysis.model.project import ProjectModel
    from repro.analysis.model.summary import ModuleSummary, extract_summary
    from repro.analysis.registry import all_rules

    t0 = perf_counter()
    rules = all_rules()
    known_codes = frozenset(r.code for r in rules)
    enabled = [r for r in rules if config.rule_enabled(r.code)]
    file_rules = [r for r in enabled if not isinstance(r, ProjectRule)]
    project_rules = [
        r for r in enabled if isinstance(r, ProjectRule) and not r.audit
    ]
    audit_rules = [r for r in enabled if isinstance(r, ProjectRule) and r.audit]

    files = discover_files(paths)
    summaries: list[ModuleSummary] = []
    raw: list[Finding] = []
    for path in files:
        parsed, error = _parse(path)
        if parsed is None:
            summaries.append(
                ModuleSummary.empty(_derive_module_name(path), str(path))
            )
            raw.append(error)
            continue
        ctx = FileContext(path, *parsed, config)
        for rule in file_rules:
            raw.extend(rule.check(ctx))
        summaries.append(extract_summary(ctx))

    model = ProjectModel(summaries)
    pctx = ProjectContext(model, config, known_codes=known_codes)
    for rule in project_rules:
        raw.extend(rule.check_project(pctx))
    raw.sort(key=Finding.sort_key)

    audit_ctx = ProjectContext(
        model, config, raw_findings=raw, known_codes=known_codes
    )
    audit_raw: list[Finding] = []
    for rule in audit_rules:
        audit_raw.extend(rule.check_project(audit_ctx))

    noqa = {
        (summary.path, line): None if codes is None else frozenset(codes)
        for summary in summaries
        for line, codes in summary.noqa
    }

    def _suppressed(finding: Finding) -> bool:
        if finding.code == "RPR015":
            return False  # a suppression cannot vouch for itself
        key = (finding.path, finding.line)
        if key not in noqa:
            return False
        return noqa[key] is None or finding.code.upper() in noqa[key]

    findings = sorted(
        (f for f in raw + audit_raw if not _suppressed(f)),
        key=Finding.sort_key,
    )
    stats = AnalysisStats(
        files_total=len(files),
        rules_run=len(enabled),
        wall_time_s=perf_counter() - t0,
    )
    return AnalysisReport(findings=findings, stats=stats)
