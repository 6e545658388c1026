"""Lint engine: file discovery, AST contexts, noqa handling, rule driving.

One :class:`FileContext` is built per file — it owns the parsed tree, the
module name derived from the path, and an import-alias table so rules can
resolve ``t.time()`` back to ``time.time`` — and every enabled rule runs
against it.  Findings landing on a line carrying a matching
``# repro: noqa[CODE]`` comment are dropped before reporting.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator, Optional

#: Suppression comment: hash + ``repro: noqa``, bare (all codes) or
#: with a code list like ``[RPR001]`` / ``[RPR001,RPR004]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)

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
        baseline_entries: Optional[dict] = None,
        baseline_path: Optional[str] = None,
        known_codes: frozenset[str] = frozenset(),
    ):
        self.model = model
        self.config = config
        #: Raw (pre-noqa, pre-baseline) findings of every non-audit rule;
        #: only populated for audit rules.
        self.raw_findings = raw_findings if raw_findings is not None else []
        #: Baseline fingerprint -> recorded entry info, when a baseline
        #: is in play (RPR015 dead-entry audit); None otherwise.
        self.baseline_entries = baseline_entries
        self.baseline_path = baseline_path
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
        display_path: Optional[str] = None,
    ):
        self.path = path
        self.display_path = display_path or str(path)
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

    # -- suppressions ------------------------------------------------------------

    def suppressed(self, finding: Finding) -> bool:
        """True when the finding's line carries a matching noqa comment."""
        if not 1 <= finding.line <= len(self.lines):
            return False
        match = _NOQA_RE.search(self.lines[finding.line - 1])
        if match is None:
            return False
        codes = match.group("codes")
        if codes is None:
            return True
        allowed = {c.strip().upper() for c in codes.split(",") if c.strip()}
        return finding.code.upper() in allowed


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


def _parse(path: Path, display: str):
    """(source, tree) or a one-element RPR000 finding list."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        return None, [
            Finding(
                code=PARSE_ERROR_CODE,
                path=display,
                line=getattr(exc, "lineno", None) or 1,
                col=1,
                message=f"could not analyze file: {exc}",
            )
        ]
    return (source, tree), []


def _split_rules(rules: Optional[Iterable[Rule]]):
    from repro.analysis.registry import all_rules

    rules_list = list(rules) if rules is not None else all_rules()
    file_rules = [r for r in rules_list if not isinstance(r, ProjectRule)]
    project_rules = [
        r for r in rules_list if isinstance(r, ProjectRule) and not r.audit
    ]
    audit_rules = [
        r for r in rules_list if isinstance(r, ProjectRule) and r.audit
    ]
    return rules_list, file_rules, project_rules, audit_rules


def analyze_file(
    path: Path,
    config,
    rules: Optional[Iterable[Rule]] = None,
    display_path: Optional[str] = None,
) -> list[Finding]:
    """Run every enabled rule over one file; returns sorted findings.

    Project rules run against a single-file model, so class-local
    interprocedural rules (snapshot coverage, event wiring) work here
    too; cross-file edges obviously need :func:`analyze_project`.
    """
    display = display_path or str(path)
    parsed, errors = _parse(path, display)
    if parsed is None:
        return errors
    source, tree = parsed
    ctx = FileContext(path, source, tree, config, display_path=display)
    rules_list, file_rules, project_rules, audit_rules = _split_rules(rules)
    known_codes = frozenset(r.code for r in rules_list)

    raw: list[Finding] = []
    for rule in file_rules:
        if config.rule_enabled(rule.code):
            raw.extend(rule.check(ctx))
    if project_rules or audit_rules:
        from repro.analysis.model.project import ProjectModel
        from repro.analysis.model.summary import extract_summary

        model = ProjectModel([extract_summary(ctx)])
        pctx = ProjectContext(model, config, known_codes=known_codes)
        for rule in project_rules:
            if config.rule_enabled(rule.code):
                raw.extend(rule.check_project(pctx))
        audit_ctx = ProjectContext(
            model,
            config,
            raw_findings=sorted(raw, key=Finding.sort_key),
            known_codes=known_codes,
        )
        for rule in audit_rules:
            if config.rule_enabled(rule.code):
                raw.extend(rule.check_project(audit_ctx))
    findings = [
        f
        for f in raw
        if f.code == "RPR015" or not ctx.suppressed(f)
    ]
    return sorted(findings, key=Finding.sort_key)


def discover_files(paths: Iterable[Path], config) -> list[Path]:
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
    if config.exclude:
        out = {
            p
            for p in out
            if not any(p.match(pattern) for pattern in config.exclude)
        }
    return sorted(out)


def analyze_project(
    paths: Iterable[Path],
    config,
    rules: Optional[Iterable[Rule]] = None,
    baseline_entries: Optional[dict] = None,
    baseline_path: Optional[str] = None,
) -> AnalysisReport:
    """Whole-program analysis of every ``.py`` file under *paths*.

    Per-file rules run on each parsed file; project rules then run once
    over the model assembled from every file's summary, and the audit
    rules last, over the raw finding set.
    """
    t0 = perf_counter()
    rules_list, file_rules, project_rules, audit_rules = _split_rules(rules)
    known_codes = frozenset(r.code for r in rules_list)
    enabled = [r for r in rules_list if config.rule_enabled(r.code)]

    from repro.analysis.model.project import ProjectModel
    from repro.analysis.model.summary import ModuleSummary, extract_summary

    files = discover_files(paths, config)
    summaries: dict[str, "ModuleSummary"] = {}
    raw_by_file: dict[str, list[Finding]] = {}
    for path in files:
        display = str(path)
        parsed_file, errors = _parse(path, display)
        if parsed_file is None:
            summaries[display] = ModuleSummary.empty(
                _derive_module_name(path), display
            )
            raw_by_file[display] = errors
            continue
        source, tree = parsed_file
        ctx = FileContext(path, source, tree, config, display_path=display)
        raw: list[Finding] = []
        for rule in file_rules:
            if config.rule_enabled(rule.code):
                raw.extend(rule.check(ctx))
        summaries[display] = extract_summary(ctx)
        raw_by_file[display] = raw

    model = ProjectModel(summaries.values())

    pctx = ProjectContext(model, config, known_codes=known_codes)
    project_raw: list[Finding] = []
    for rule in sorted(project_rules, key=lambda r: r.code):
        if config.rule_enabled(rule.code):
            project_raw.extend(rule.check_project(pctx))

    all_raw = sorted(
        [f for raws in raw_by_file.values() for f in raws] + project_raw,
        key=Finding.sort_key,
    )
    audit_ctx = ProjectContext(
        model,
        config,
        raw_findings=all_raw,
        baseline_entries=baseline_entries,
        baseline_path=baseline_path,
        known_codes=known_codes,
    )
    audit_raw: list[Finding] = []
    for rule in sorted(audit_rules, key=lambda r: r.code):
        if config.rule_enabled(rule.code):
            audit_raw.extend(rule.check_project(audit_ctx))

    noqa_by_path: dict[str, dict[int, Optional[frozenset[str]]]] = {}
    for display in sorted(summaries):
        noqa_by_path[display] = {
            line: None if codes is None else frozenset(codes)
            for line, codes in summaries[display].noqa
        }

    def _suppressed(finding: Finding) -> bool:
        if finding.code == "RPR015":
            return False  # a suppression cannot vouch for itself
        table = noqa_by_path.get(finding.path)
        if table is None or finding.line not in table:
            return False
        codes = table[finding.line]
        return codes is None or finding.code.upper() in codes

    findings = sorted(
        (f for f in all_raw + audit_raw if not _suppressed(f)),
        key=Finding.sort_key,
    )

    stats = AnalysisStats(
        files_total=len(files),
        rules_run=len(enabled),
        wall_time_s=perf_counter() - t0,
    )
    return AnalysisReport(findings=findings, stats=stats)


def analyze_paths(
    paths: Iterable[Path],
    config,
    rules: Optional[Iterable[Rule]] = None,
) -> list[Finding]:
    """Analyze every ``.py`` file under *paths*; returns sorted findings."""
    return analyze_project(paths, config, rules=rules).findings
