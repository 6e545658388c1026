"""Serialization-protocol rule.

RPR005: serialized dataclasses pair ``to_dict``/``from_dict`` with
hash-stable field coverage.

Every config/result object round-trips through canonical JSON (see
:mod:`repro.serialize`) and its content hash keys the sweep cache.  A
dataclass with only half the pair can be written but never replayed; a
``to_dict`` that *omits* a declared field silently excludes it from the
content hash, so two different specs collide on one cache entry.  When
``to_dict`` is a plain ``return { ... }`` literal we also require the
field keys in declaration order — reviewable evidence that serialization
tracks the dataclass shape.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.engine import FileContext, Finding, Rule
from repro.analysis.registry import register

_DATACLASS_DECORATORS = {"dataclass", "dataclasses.dataclass"}


def _is_dataclass(ctx: FileContext, node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (ctx.resolve(target) or "") in _DATACLASS_DECORATORS:
            return True
    return False


def _field_names(node: ast.ClassDef) -> list[str]:
    names = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if not isinstance(stmt.annotation, ast.Subscript) or not (
                isinstance(stmt.annotation.value, ast.Name)
                and stmt.annotation.value.id == "ClassVar"
            ):
                names.append(stmt.target.id)
    return names


def _literal_dict_keys(fn: ast.FunctionDef) -> Optional[list[str]]:
    """Keys of ``return { ... }`` when the body is that simple, else None."""
    returns = [n for n in ast.walk(fn) if isinstance(n, ast.Return)]
    if len(returns) != 1 or not isinstance(returns[0].value, ast.Dict):
        return None
    keys = []
    for key in returns[0].value.keys:
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None  # dynamic keys: out of static reach
        keys.append(key.value)
    return keys


@register
class SerializationPairRule(Rule):
    code = "RPR005"
    name = "serialization-pairing"
    description = (
        "dataclasses in the serialization protocol define both to_dict and "
        "from_dict, and literal to_dict bodies cover every field in "
        "declaration order"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(ctx, node):
                continue
            methods = {
                m.name: m for m in node.body if isinstance(m, ast.FunctionDef)
            }
            has_to, has_from = "to_dict" in methods, "from_dict" in methods
            if has_to != has_from:
                missing = "from_dict" if has_to else "to_dict"
                present = "to_dict" if has_to else "from_dict"
                yield self.finding(
                    ctx,
                    node,
                    f"dataclass {node.name} defines {present} but not "
                    f"{missing}; a one-way serializer breaks cache replay",
                )
            if not has_to:
                continue
            keys = _literal_dict_keys(methods["to_dict"])
            if keys is None:
                continue
            fields = _field_names(node)
            missing_fields = [f for f in fields if f not in keys]
            if missing_fields:
                yield self.finding(
                    ctx,
                    methods["to_dict"],
                    f"{node.name}.to_dict omits field(s) "
                    f"{', '.join(missing_fields)}; omitted fields are "
                    "excluded from the content hash, so distinct specs can "
                    "collide on one cache entry",
                )
            else:
                in_field_order = [k for k in keys if k in set(fields)]
                if in_field_order != fields:
                    yield self.finding(
                        ctx,
                        methods["to_dict"],
                        f"{node.name}.to_dict lists fields in a different "
                        "order than the declaration; keep declaration order "
                        "so the serialized shape tracks the dataclass",
                    )
