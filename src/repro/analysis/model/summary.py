"""Per-file model extraction: everything one file contributes.

A :class:`ModuleSummary` is extracted from a parsed file once.
Summaries are config-independent: they record *sites* (every ``self.X``
assignment, every resolved call, every ``engine.schedule*``), and the
rules decide later which sites matter under the active configuration.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.engine import FileContext
from repro.analysis.rules.determinism import is_banned_call
from repro.analysis.rules.hygiene import _is_engineish
from repro.analysis.rules.units import _unit_leaves

#: Engine scheduling entry points (see ``repro.core.engine.Engine``).
SCHEDULE_METHODS = ("schedule", "schedule_at")

_ORDER_COMMENT_RE = re.compile(r"#[^\n]*\border\b", re.IGNORECASE)

#: Suppression comment: hash + ``repro: noqa``, bare (all codes) or
#: with a code list like ``[RPR001]`` / ``[RPR001,RPR004]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class CallArg:
    """One argument at a call site, reduced to what unit-flow needs."""

    position: Optional[int]
    keyword: Optional[str]
    unit_suffix: Optional[str]
    display: str


@dataclass(frozen=True)
class CallSite:
    """One resolved outgoing call from a function or method.

    ``callee`` is the import-resolved dotted name (``repro.units.ns``,
    ``time.time``) or — when ``is_self_call`` — the bare method name
    dispatched on ``self``; the project model qualifies it against the
    owning class and its bases.
    """

    callee: str
    is_self_call: bool
    line: int
    col: int
    args: tuple[CallArg, ...] = ()


@dataclass(frozen=True)
class ScheduleSite:
    """One ``engine.schedule*`` call site (the event-wiring surface)."""

    method: str
    line: int
    col: int
    same_cycle: bool
    callback_self_method: Optional[str]
    has_order_comment: bool
    owner: str


@dataclass
class FunctionSummary:
    """One function or method: signature plus resolved outgoing calls."""

    name: str
    line: int
    params: tuple[str, ...]
    kwonly: tuple[str, ...]
    has_varargs: bool
    calls: tuple[CallSite, ...]
    banned_calls: tuple[str, ...]


@dataclass
class ClassSummary:
    """One class: attribute assignment sites and its state table.

    ``attr_sites`` maps every ``self.X`` store to the ``(method, line)``
    pairs performing it — across *all* methods, exemptions are applied
    by the rules.  ``state``/``derived`` are the attribute names of the
    class-body ``STATE`` rows and ``DERIVED`` entries (``None`` when the
    class body does not assign the table); ``table_complete`` is False
    when a table is not a literal, which tells RPR011 to stand down
    rather than guess.  ``class_attrs`` are the names the class body
    declares (assignments, annotated fields, ``__slots__`` entries).
    """

    name: str
    line: int
    bases: tuple[str, ...]
    methods: tuple[str, ...]
    attr_sites: dict[str, tuple[tuple[str, int], ...]]
    class_attrs: tuple[str, ...]
    state: Optional[tuple[str, ...]]
    derived: Optional[tuple[str, ...]]
    table_complete: bool
    table_line: int


@dataclass
class ModuleSummary:
    """Everything one file contributes to the project model."""

    module: str
    path: str
    classes: tuple[ClassSummary, ...]
    functions: tuple[FunctionSummary, ...]
    schedule_sites: tuple[ScheduleSite, ...]
    noqa: tuple[tuple[int, Optional[tuple[str, ...]]], ...] = field(
        default=()
    )

    @classmethod
    def empty(cls, module: str, path: str) -> "ModuleSummary":
        """Placeholder for unparseable files so the model stays total."""
        return cls(
            module=module,
            path=path,
            classes=(),
            functions=(),
            schedule_sites=(),
            noqa=(),
        )


# -- extraction --------------------------------------------------------------------


def _arg_suffix(node: ast.expr) -> Optional[str]:
    """The single unit suffix of an expression, or None when absent/mixed."""
    suffixes = {s for _, s in _unit_leaves(node)}
    if len(suffixes) == 1:
        return next(iter(suffixes))
    return None


def _arg_display(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant):
        return repr(node.value)
    return "<expr>"


def _mentions_now(node: ast.expr) -> bool:
    """Heuristic: does this time expression reference the current cycle?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "now":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "now":
            return True
    return False


def _table_names(value: ast.expr, rows: bool) -> Optional[tuple[str, ...]]:
    """Attribute names of a literal ``STATE`` (*rows*) or ``DERIVED``
    table, or ``None`` when the table is not a literal."""
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    names = []
    for elt in value.elts:
        if rows:
            if not isinstance(elt, (ast.Tuple, ast.List)) or not elt.elts:
                return None
            elt = elt.elts[0]
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        names.append(elt.value)
    return tuple(names)


def _body_names(node: ast.ClassDef) -> tuple[str, ...]:
    """Names the class body declares: assignments, annotated fields and
    literal ``__slots__`` entries."""
    names = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.append(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.append(target.id)
                    if target.id == "__slots__" and isinstance(
                        stmt.value, (ast.Tuple, ast.List)
                    ):
                        names.extend(
                            elt.value
                            for elt in stmt.value.elts
                            if isinstance(elt, ast.Constant)
                        )
    return tuple(names)


class _Extractor:
    """Single AST pass collecting the module summary."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.classes: list[ClassSummary] = []
        self.functions: list[FunctionSummary] = []
        self.schedule_sites: list[ScheduleSite] = []

    def run(self) -> ModuleSummary:
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._extract_class(stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(stmt, qualname=stmt.name, self_name=None)
        return ModuleSummary(
            module=self.ctx.module_name,
            path=self.ctx.display_path,
            classes=tuple(self.classes),
            functions=tuple(self.functions),
            schedule_sites=tuple(self.schedule_sites),
            noqa=self._noqa_comments(),
        )

    # -- suppressions --------------------------------------------------------------

    def _noqa_comments(
        self,
    ) -> tuple[tuple[int, Optional[tuple[str, ...]]], ...]:
        """Suppression table from real ``#`` comment tokens only.

        Scanning raw lines would also match the noqa syntax *quoted*
        inside docstrings and message strings (this analyzer's own
        sources do exactly that), which RPR015 would then flag as stale
        suppressions.  Tokenizing restricts the search to comments.
        """
        import io
        import tokenize

        out: list[tuple[int, Optional[tuple[str, ...]]]] = []
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.ctx.source).readline)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return tuple(out)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                out.append((token.start[0], None))
            else:
                parsed = tuple(
                    sorted(
                        {c.strip().upper() for c in codes.split(",") if c.strip()}
                    )
                )
                out.append((token.start[0], parsed))
        return tuple(out)

    # -- classes -------------------------------------------------------------------

    def _extract_class(self, node: ast.ClassDef) -> None:
        methods: list[str] = []
        attr_sites: dict[str, list[tuple[str, int]]] = {}
        tables: dict[str, Optional[tuple[str, ...]]] = {}
        table_line = 0

        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id in ("STATE", "DERIVED")
            ):
                name = stmt.targets[0].id
                tables[name] = _table_names(stmt.value, rows=name == "STATE")
                table_line = table_line or stmt.lineno
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            methods.append(stmt.name)
            is_static = any(
                isinstance(dec, ast.Name) and dec.id == "staticmethod"
                for dec in stmt.decorator_list
            )
            self_name = (
                stmt.args.args[0].arg
                if stmt.args.args and not is_static
                else None
            )
            self._extract_function(
                stmt, qualname=f"{node.name}.{stmt.name}", self_name=self_name
            )
            if self_name is not None:
                self._collect_attr_stores(stmt, self_name, attr_sites)

        bases = tuple(
            resolved
            for resolved in (
                self.ctx.resolve(base) for base in node.bases
            )
            if resolved is not None
        )
        self.classes.append(
            ClassSummary(
                name=node.name,
                line=node.lineno,
                bases=bases,
                methods=tuple(methods),
                attr_sites={
                    attr: tuple(sites)
                    for attr, sites in sorted(attr_sites.items())
                },
                class_attrs=_body_names(node),
                state=tables.get("STATE"),
                derived=tables.get("DERIVED"),
                table_complete=all(t is not None for t in tables.values()),
                table_line=table_line,
            )
        )

    @staticmethod
    def _collect_attr_stores(
        method: ast.AST,
        self_name: str,
        attr_sites: dict[str, list[tuple[str, int]]],
    ) -> None:
        method_name = method.name  # type: ignore[attr-defined]
        for sub in ast.walk(method):
            targets: list[ast.expr] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                targets = [sub.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if (
                        isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == self_name
                        and isinstance(leaf.ctx, ast.Store)
                    ):
                        attr_sites.setdefault(leaf.attr, []).append(
                            (method_name, sub.lineno)
                        )

    # -- functions and call sites --------------------------------------------------

    def _extract_function(
        self,
        node: ast.AST,
        qualname: str,
        self_name: Optional[str],
    ) -> None:
        args = node.args  # type: ignore[attr-defined]
        params = tuple(
            a.arg
            for a in (args.posonlyargs + args.args)[(1 if self_name else 0):]
        )
        kwonly = tuple(a.arg for a in args.kwonlyargs)
        calls: list[CallSite] = []
        banned: list[str] = []
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            self._maybe_schedule_site(sub, qualname, self_name)
            callee, is_self = self._resolve_callee(sub.func, self_name)
            if callee is None:
                continue
            if not is_self and is_banned_call(callee):
                if callee not in banned:
                    banned.append(callee)
                continue
            calls.append(
                CallSite(
                    callee=callee,
                    is_self_call=is_self,
                    line=sub.lineno,
                    col=sub.col_offset + 1,
                    args=self._call_args(sub),
                )
            )
        self.functions.append(
            FunctionSummary(
                name=qualname,
                line=node.lineno,  # type: ignore[attr-defined]
                params=params,
                kwonly=kwonly,
                has_varargs=args.vararg is not None or args.kwarg is not None,
                calls=tuple(calls),
                banned_calls=tuple(banned),
            )
        )

    def _resolve_callee(
        self, func: ast.expr, self_name: Optional[str]
    ) -> tuple[Optional[str], bool]:
        if (
            self_name is not None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == self_name
        ):
            return func.attr, True
        resolved = self.ctx.resolve(func)
        return resolved, False

    @staticmethod
    def _call_args(call: ast.Call) -> tuple[CallArg, ...]:
        out: list[CallArg] = []
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            suffix = _arg_suffix(arg)
            if suffix is not None:
                out.append(
                    CallArg(
                        position=position,
                        keyword=None,
                        unit_suffix=suffix,
                        display=_arg_display(arg),
                    )
                )
        for kw in call.keywords:
            if kw.arg is None:
                continue
            suffix = _arg_suffix(kw.value)
            if suffix is not None:
                out.append(
                    CallArg(
                        position=None,
                        keyword=kw.arg,
                        unit_suffix=suffix,
                        display=_arg_display(kw.value),
                    )
                )
        return tuple(out)

    # -- schedule sites ------------------------------------------------------------

    def _maybe_schedule_site(
        self, call: ast.Call, owner: str, self_name: Optional[str]
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in SCHEDULE_METHODS:
            return
        if not _is_engineish(self.ctx, func.value):
            return
        if not call.args:
            return
        first = call.args[0]
        if func.attr == "schedule_at":
            same_cycle = _mentions_now(first)
        else:
            same_cycle = isinstance(first, ast.Constant) and first.value == 0
        callback_self: Optional[str] = None
        if len(call.args) >= 2:
            cb = call.args[1]
            if (
                self_name is not None
                and isinstance(cb, ast.Attribute)
                and isinstance(cb.value, ast.Name)
                and cb.value.id == self_name
            ):
                callback_self = cb.attr
        self.schedule_sites.append(
            ScheduleSite(
                method=func.attr,
                line=call.lineno,
                col=call.col_offset + 1,
                same_cycle=same_cycle,
                callback_self_method=callback_self,
                has_order_comment=self._has_order_comment(call),
                owner=owner,
            )
        )

    def _has_order_comment(self, call: ast.Call) -> bool:
        """An ``# ... order ...`` comment on the call lines or just above.

        "Just above" means the whole contiguous comment block preceding
        the call, so a multi-line explanation counts even when the word
        "order" only appears on its first line.
        """
        start = call.lineno
        end = getattr(call, "end_lineno", None) or start
        lines = self.ctx.lines
        for lineno in range(start, min(end, len(lines)) + 1):
            if _ORDER_COMMENT_RE.search(lines[lineno - 1]):
                return True
        lineno = start - 1
        while lineno >= 1 and lines[lineno - 1].lstrip().startswith("#"):
            if _ORDER_COMMENT_RE.search(lines[lineno - 1]):
                return True
            lineno -= 1
        return False


def extract_summary(ctx: FileContext) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed file."""
    return _Extractor(ctx).run()
