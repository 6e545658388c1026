"""Rule catalog.  Importing this package registers every rule.

Per-file rules (syntactic, one AST at a time):

==========  =====================================================================
Code        Invariant
==========  =====================================================================
RPR001      no unseeded randomness or wall clock in simulator packages
RPR002      no module-level mutable state / mutable default arguments
RPR003      no iteration over bare sets (or ``.keys()``) — order must be explicit
RPR004      heap pushes in engine/controller code carry an explicit tie-break
RPR005      serialized dataclasses pair ``to_dict``/``from_dict``, stable fields
RPR006      unit suffixes (``*_ns``/``*_ck``/…) never mixed without conversion
RPR007      no ``print()`` in library code (reporters/CLIs exempt)
RPR008      event callbacks never re-enter ``engine.run()``
RPR009      ``*Stats`` dataclasses inherit the telemetry snapshot mixin
==========  =====================================================================

Project rules (interprocedural, over the whole-program model in
:mod:`repro.analysis.model`):

==========  =====================================================================
Code        Invariant
==========  =====================================================================
RPR011      runtime-mutated attributes are declared in the class's state table
RPR012      same-cycle scheduling only from the documented order-exempt set
RPR013      pure packages are *transitively* free of wall-clock/entropy calls
RPR014      unit suffixes match across call boundaries (argument vs parameter)
RPR015      every noqa comment still matches a live finding
==========  =====================================================================
"""

from repro.analysis.rules import (  # noqa: F401  (side effect: registration)
    determinism,
    event_wiring,
    hygiene,
    ordering,
    serialization,
    snapshot_coverage,
    state,
    stats_protocol,
    suppressions,
    taint,
    unit_flow,
    units,
)
