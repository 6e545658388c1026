"""RPR009: ``*Stats`` dataclasses opt into the telemetry snapshot protocol.

The :class:`~repro.telemetry.registry.MetricsRegistry` flattens every
registered stats object through the uniform ``snapshot()``/``to_dict()``
protocol that :class:`~repro.telemetry.stats.StatsBase` derives from the
dataclass field list.  A stats container that skips the mixin silently
falls out of the metric tree (the registry would register it as an opaque
value), so the rule makes the protocol structural: any dataclass named
``*Stats`` in the simulator packages must inherit ``StatsBase``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule
from repro.analysis.registry import register
from repro.analysis.rules.serialization import _is_dataclass

_MIXIN = "StatsBase"


def _base_names(ctx: FileContext, node: ast.ClassDef) -> set[str]:
    names = set()
    for base in node.bases:
        dotted = ctx.resolve(base) or ctx.dotted_name(base) or ""
        names.add(dotted.rsplit(".", 1)[-1])
    return names


@register
class StatsProtocolRule(Rule):
    code = "RPR009"
    name = "stats-snapshot-protocol"
    description = (
        "dataclasses named *Stats inherit telemetry.StatsBase so the "
        "metrics registry can snapshot them uniformly"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_packages(
            ctx.config.pure_packages + ("repro.telemetry",)
        ):
            return
        for node in ast.walk(ctx.tree):
            if (
                not isinstance(node, ast.ClassDef)
                or not node.name.endswith("Stats")
                or not _is_dataclass(ctx, node)
            ):
                continue
            if _MIXIN not in _base_names(ctx, node):
                yield self.finding(
                    ctx,
                    node,
                    f"stats dataclass {node.name} does not inherit "
                    f"{_MIXIN}; without the snapshot protocol the metrics "
                    "registry cannot flatten it into dotted metric names",
                )
