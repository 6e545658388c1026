"""Whole-program project model for interprocedural lint rules.

The per-file rules (RPR001–RPR009) see one AST at a time.  The
invariants added since — every mutated field is declared in its class's
state table, same-cycle bucket insertion order *is* ChannelBus
arbitration order (PR 4), pure packages stay transitively deterministic
(PR 1/2) — span modules, so enforcing them needs a model of the whole
program:

* :class:`~repro.analysis.model.summary.ModuleSummary` — everything one
  file contributes to the model (classes with their attribute
  assignment sites and state tables, functions with
  their resolved outgoing calls, ``engine.schedule*`` call sites, noqa
  comments).
* :class:`~repro.analysis.model.project.ProjectModel` — the summaries
  assembled into a class inventory with base resolution and a
  name-resolved call graph, built in one pass and shared by every
  project rule.
"""

from repro.analysis.model.project import ProjectModel
from repro.analysis.model.summary import ModuleSummary, extract_summary

__all__ = [
    "ModuleSummary",
    "ProjectModel",
    "extract_summary",
]
