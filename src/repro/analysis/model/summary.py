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
from typing import Iterator, Optional

from repro.analysis.engine import FileContext, _NOQA_RE
from repro.analysis.rules.determinism import _BANNED_CALLS, _RANDOM_ALLOWED
from repro.analysis.rules.units import _suffix_of, _unit_leaves

#: Engine scheduling entry points (see ``repro.core.engine.Engine``).
SCHEDULE_METHODS = ("schedule", "schedule_at", "schedule_event")

#: Receiver name tails that conventionally hold the engine (mirrors the
#: RPR008 heuristic in :mod:`repro.analysis.rules.hygiene`).
_ENGINE_TAILS = ("engine", "_engine", "eng")

_ORDER_COMMENT_RE = re.compile(r"#[^\n]*\border\b", re.IGNORECASE)


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
    """One class: attribute assignment sites and state-protocol keys.

    ``attr_sites`` maps every ``self.X`` store to the ``(method, line)``
    pairs performing it — across *all* methods, exemptions are applied
    by the rules.  ``snapshot_keys``/``serial_keys`` are the statically
    extracted key sets of ``snapshot_state``/``to_dict`` (``None`` when
    the method is absent); ``*_complete`` is False when extraction hit
    something dynamic, which tells RPR011 to stand down rather than
    guess.
    """

    name: str
    line: int
    bases: tuple[str, ...]
    fields: tuple[str, ...]
    slots: tuple[str, ...]
    methods: tuple[str, ...]
    attr_sites: dict[str, tuple[tuple[str, int], ...]]
    snapshot_keys: Optional[tuple[str, ...]]
    snapshot_complete: bool
    snapshot_calls_super: bool
    snapshot_line: int
    serial_keys: Optional[tuple[str, ...]]
    serial_complete: bool
    serial_calls_super: bool


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


def _is_banned(resolved: str) -> bool:
    if resolved in _BANNED_CALLS:
        return True
    return (
        resolved.startswith("random.")
        and resolved not in _RANDOM_ALLOWED
        and resolved.count(".") == 1
    )


def _mentions_now(node: ast.expr) -> bool:
    """Heuristic: does this time expression reference the current cycle?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "now":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "now":
            return True
    return False


def _is_super_state_call(node: ast.Call) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("snapshot_state", "to_dict")
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    )


def _state_method_keys(fn: ast.FunctionDef) -> tuple[
    tuple[str, ...], bool, bool
]:
    """(keys, complete, calls_super) for a snapshot_state/to_dict body.

    Keys come from dict literals, constant-key subscript stores
    (``state["k"] = v``), and ``.update()`` calls with literal
    arguments.  Anything dynamic — ``**`` splats, computed keys, a
    returned name fed by a non-``super()`` call — clears *complete* so
    coverage rules skip the class instead of guessing.
    """
    keys: list[str] = []
    seen: set[str] = set()
    complete = True
    calls_super = False

    def add(key: str) -> None:
        if key not in seen:
            seen.add(key)
            keys.append(key)

    returned_names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            returned_names.add(node.value.id)

    for node in ast.walk(fn):
        if isinstance(node, ast.Return):
            if node.value is not None and not isinstance(
                node.value, (ast.Dict, ast.Name)
            ):
                complete = False
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    add(key.value)
                else:
                    complete = False  # ** splat or computed key
        elif isinstance(node, ast.Assign):
            targets = node.targets
            for target in targets:
                if isinstance(target, ast.Subscript):
                    key = target.slice
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        add(key.value)
                    else:
                        complete = False
            if (
                isinstance(node.value, ast.Call)
                and len(targets) == 1
                and isinstance(targets[0], ast.Name)
                and targets[0].id in returned_names
            ):
                if _is_super_state_call(node.value):
                    calls_super = True
                else:
                    complete = False
        elif isinstance(node, ast.Call):
            func = node.func
            if _is_super_state_call(node):
                calls_super = True
            elif isinstance(func, ast.Attribute) and func.attr == "update":
                for arg in node.args:
                    if not isinstance(arg, ast.Dict):
                        complete = False  # dict literals handled by the walk
                for kw in node.keywords:
                    if kw.arg is not None:
                        add(kw.arg)
                    else:
                        complete = False
    return tuple(keys), complete, calls_super


def _annotated_fields(node: ast.ClassDef) -> tuple[str, ...]:
    """Annotated class-body names (dataclass fields), minus ClassVars."""
    names = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ann = stmt.annotation
            if isinstance(ann, ast.Subscript) and (
                isinstance(ann.value, ast.Name) and ann.value.id == "ClassVar"
            ):
                continue
            names.append(stmt.target.id)
    return tuple(names)


def _slot_names(node: ast.ClassDef) -> tuple[str, ...]:
    names = []
    for stmt in node.body:
        if (
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            )
            and isinstance(stmt.value, (ast.Tuple, ast.List))
        ):
            for elt in stmt.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    names.append(elt.value)
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
        snapshot_fn: Optional[ast.FunctionDef] = None
        serial_fn: Optional[ast.FunctionDef] = None

        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            methods.append(stmt.name)
            if stmt.name == "snapshot_state" and isinstance(
                stmt, ast.FunctionDef
            ):
                snapshot_fn = stmt
            elif stmt.name == "to_dict" and isinstance(stmt, ast.FunctionDef):
                serial_fn = stmt
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
        snap_keys: Optional[tuple[str, ...]] = None
        snap_complete = True
        snap_super = False
        snap_line = 0
        if snapshot_fn is not None:
            snap_keys, snap_complete, snap_super = _state_method_keys(
                snapshot_fn
            )
            snap_line = snapshot_fn.lineno
        ser_keys: Optional[tuple[str, ...]] = None
        ser_complete = True
        ser_super = False
        if serial_fn is not None:
            ser_keys, ser_complete, ser_super = _state_method_keys(serial_fn)

        self.classes.append(
            ClassSummary(
                name=node.name,
                line=node.lineno,
                bases=bases,
                fields=_annotated_fields(node),
                slots=_slot_names(node),
                methods=tuple(methods),
                attr_sites={
                    attr: tuple(sites)
                    for attr, sites in sorted(attr_sites.items())
                },
                snapshot_keys=snap_keys,
                snapshot_complete=snap_complete,
                snapshot_calls_super=snap_super,
                snapshot_line=snap_line,
                serial_keys=ser_keys,
                serial_complete=ser_complete,
                serial_calls_super=ser_super,
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
            if not is_self and _is_banned(callee):
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
        receiver = self.ctx.dotted_name(func.value) or ""
        tail = receiver.rsplit(".", 1)[-1]
        if tail not in _ENGINE_TAILS:
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


def iter_noqa(
    summary: ModuleSummary,
) -> Iterator[tuple[int, Optional[tuple[str, ...]]]]:
    """The file's suppression comments as ``(line, codes-or-None)``."""
    yield from summary.noqa
