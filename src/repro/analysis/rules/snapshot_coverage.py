"""RPR011: every runtime-mutated attribute is declared in its state table.

A checkpointed class lists what a checkpoint carries in one class-level
table (:mod:`repro.core.state`): ``STATE`` rows are captured, ``DERIVED``
names are left out on purpose.  A field that mutates mid-run but is in
neither restores into a silently different simulator — state drift that
checkpoint fuzzing only catches when the field both diverges before the
barrier and matters after it.  Any ``self.X`` assignment outside
construction/restore marks ``X`` as runtime state, and the tables (unioned
along the MRO) must declare it; conversely a table entry naming no
attribute of the class is drift.  Non-literal tables are out of static
reach and skipped; classes without a table have no checkpoint state.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.config import module_in
from repro.analysis.engine import Finding, ProjectContext, ProjectRule
from repro.analysis.registry import register


@register
class SnapshotCoverageRule(ProjectRule):
    code = "RPR011"
    name = "snapshot-coverage"
    description = (
        "attributes assigned outside __init__/restore in checkpointed "
        "simulator classes are declared in the class's STATE or DERIVED "
        "table, and every table entry names a real attribute"
    )

    def check_project(self, pctx: ProjectContext) -> Iterator[Finding]:
        model, config = pctx.model, pctx.config
        exempt_methods = set(config.snapshot_exempt_methods)
        for key in sorted(model.classes):
            module, cls = model.classes[key]
            if not module_in(module, config.pure_packages):
                continue
            declared, analyzable = model.effective_state_keys(module, cls)
            if not analyzable:
                continue
            path = model.path_of[module]
            for attr in sorted(cls.attr_sites):
                if attr in declared:
                    continue
                sites = [
                    (method, line)
                    for method, line in cls.attr_sites[attr]
                    if method not in exempt_methods
                ]
                if not sites:
                    continue
                method, line = min(sites, key=lambda site: (site[1], site[0]))
                yield self.finding_at(
                    path,
                    line,
                    1,
                    f"attribute '{attr}' of {key} is assigned in "
                    f"{method}() but declared in neither STATE nor DERIVED; "
                    "a checkpoint taken after this line restores into a "
                    "diverged simulator (state drift) — add a STATE row, "
                    "or list it in DERIVED if the restore rebuilds it or it "
                    "is not machine state",
                )
            known = model.known_attributes(module, cls)
            for name in (cls.state or ()) + (cls.derived or ()):
                if name not in known:
                    yield self.finding_at(
                        path,
                        cls.table_line,
                        1,
                        f"state table of {key} names '{name}', which is no "
                        "attribute of the class; a stale entry breaks the "
                        "snapshot/restore round trip",
                    )
