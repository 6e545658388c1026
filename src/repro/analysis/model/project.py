"""The assembled whole-program model shared by project rules.

Built in one pass from per-file :class:`ModuleSummary` objects, the
model offers the two views the interprocedural rules need:

* **class inventory** — every class keyed ``module.Class`` with base
  resolution across modules, so state tables and attribute inventories
  compose along inheritance chains;
* **call graph** — name-resolved edges between project functions
  (``module.func`` / ``module.Class.method``), the substrate for the
  RPR013 taint propagation.

Everything is deterministic: inputs are sorted, queries return sorted
results, and no state mutates after construction.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from repro.analysis.model.summary import (
    CallSite,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
)


class ProjectModel:
    """Immutable whole-program view over a set of module summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]):
        summaries = sorted(summaries, key=lambda s: (s.module, s.path))
        names = Counter(s.module for s in summaries)
        #: module -> summary.  Files whose derived names collide (two
        #: ``mod.py`` outside a ``repro`` tree) are each kept, under
        #: ``<module>@<path>``.
        self.modules: dict[str, ModuleSummary] = {}
        for summary in summaries:
            name = summary.module
            if names[name] > 1:
                name = f"{name}@{summary.path}"
            self.modules[name] = summary

        #: module -> display path, for finding locations.
        self.path_of: dict[str, str] = {
            name: s.path for name, s in self.modules.items()
        }

        # -- class inventory -------------------------------------------------------
        self.classes: dict[str, tuple[str, ClassSummary]] = {}
        for name, summary in self.modules.items():
            for cls in summary.classes:
                self.classes[f"{name}.{cls.name}"] = (name, cls)

        # -- function inventory ----------------------------------------------------
        self.functions: dict[str, FunctionSummary] = {}
        self._function_module: dict[str, str] = {}
        for name, summary in self.modules.items():
            for fn in summary.functions:
                key = f"{name}.{fn.name}"
                self.functions[key] = fn
                self._function_module[key] = name

    # -- module lookup -------------------------------------------------------------

    def _known_module(self, candidate: str) -> Optional[str]:
        """Longest known module matching an import candidate, if any."""
        parts = candidate.split(".")
        while parts:
            name = ".".join(parts)
            if name in self.modules:
                return name
            parts.pop()
        return None

    # -- class inventory -----------------------------------------------------------

    def resolve_class(
        self, module: str, ref: str
    ) -> Optional[tuple[str, ClassSummary]]:
        """Resolve a base-class reference seen in *module* to a class key.

        *ref* is the import-resolved dotted name recorded in the summary
        (``RefreshSchedulerBase`` for a same-module base,
        ``repro.dram.refresh.base.RefreshSchedulerBase`` for an imported
        one).
        """
        if "." not in ref:
            key = f"{module}.{ref}"
            if key in self.classes:
                return key, self.classes[key][1]
            return None
        if ref in self.classes:
            return ref, self.classes[ref][1]
        return None

    def mro_chain(
        self, module: str, cls: ClassSummary
    ) -> list[tuple[str, ClassSummary]]:
        """*cls* plus every resolvable ancestor (left-to-right, no dups)."""
        chain: list[tuple[str, ClassSummary]] = []
        seen: set[str] = set()
        stack: list[tuple[str, ClassSummary]] = [(module, cls)]
        while stack:
            mod, current = stack.pop(0)
            key = f"{mod}.{current.name}"
            if key in seen:
                continue
            seen.add(key)
            chain.append((mod, current))
            for base in current.bases:
                resolved = self.resolve_class(mod, base)
                if resolved is not None:
                    base_key, base_cls = resolved
                    base_mod = self.classes[base_key][0]
                    stack.append((base_mod, base_cls))
        return chain

    def effective_state_keys(
        self, module: str, cls: ClassSummary
    ) -> tuple[Optional[set[str]], bool]:
        """(declared attribute set, analyzable) along the MRO.

        The set unions the ``STATE`` and ``DERIVED`` tables of the class
        and every resolvable base.  *analyzable* is False when any table
        in the chain is not a literal, or when no class in the chain
        declares a table at all — in each case coverage rules must stand
        down.
        """
        declared: set[str] = set()
        has_table = False
        for _, current in self.mro_chain(module, cls):
            if not current.table_complete:
                return None, False
            for table in (current.state, current.derived):
                if table is not None:
                    has_table = True
                    declared.update(table)
        if not has_table:
            return None, False
        return declared, True

    def known_attributes(self, module: str, cls: ClassSummary) -> set[str]:
        """Every attribute the class or a resolvable base defines: ``self.X``
        stores, class-body names (fields and slots included) and methods
        (properties included)."""
        known: set[str] = set()
        for _, current in self.mro_chain(module, cls):
            known.update(current.attr_sites, current.class_attrs, current.methods)
        return known

    # -- call graph ----------------------------------------------------------------

    def resolve_call(
        self, caller_key: str, site: CallSite
    ) -> Optional[str]:
        """Resolve a call site to a project function key, if possible.

        Handles three shapes: ``self.m()`` (looked up through the owning
        class and its bases), bare same-module calls, and import-
        resolved dotted calls (``repro.units.ns`` or
        ``from repro.os import scheduler; scheduler.pick()``).
        """
        module = self._function_module.get(caller_key)
        if module is None:
            return None
        if site.is_self_call:
            caller_fn = caller_key[len(module) + 1 :]
            if "." not in caller_fn:
                return None
            class_name = caller_fn.split(".", 1)[0]
            entry = self.classes.get(f"{module}.{class_name}")
            if entry is None:
                return None
            for mod, current in self.mro_chain(entry[0], entry[1]):
                if site.callee in current.methods:
                    return f"{mod}.{current.name}.{site.callee}"
            return None
        dotted = site.callee
        if "." not in dotted:
            key = f"{module}.{dotted}"
            return key if key in self.functions else None
        owner = self._known_module(dotted)
        if owner is None:
            return None
        remainder = dotted[len(owner) + 1 :]
        if not remainder:
            return None
        key = f"{owner}.{remainder}"
        if key in self.functions:
            return key
        # ``Class(...)`` constructor call: taint flows into __init__.
        init_key = f"{owner}.{remainder}.__init__"
        if init_key in self.functions:
            return init_key
        return None

    def call_edges(self) -> dict[str, tuple[str, ...]]:
        """Adjacency: function key -> sorted resolved callee keys."""
        edges: dict[str, tuple[str, ...]] = {}
        for key in sorted(self.functions):
            fn = self.functions[key]
            resolved = {
                target
                for target in (
                    self.resolve_call(key, site) for site in fn.calls
                )
                if target is not None
            }
            edges[key] = tuple(sorted(resolved))
        return edges

    def function_module(self, key: str) -> Optional[str]:
        return self._function_module.get(key)
