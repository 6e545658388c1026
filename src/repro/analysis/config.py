"""Analysis configuration: which rules apply where.

The rules are repo-specific, so their scoping is too: determinism rules
only bind inside the simulator packages (an experiment CLI may read the
wall clock to report elapsed time; the DRAM model may not), and the
``print`` ban exempts the modules whose job is producing output.

Scopes are expressed as dotted module prefixes matched against the
module name derived from each file's path (``src/repro/core/engine.py``
-> ``repro.core.engine``), so the config keeps working when the analyzer
is pointed at a sub-tree or a test fixture laid out like the package.
"""

from __future__ import annotations

from dataclasses import dataclass


def module_in(module: str, prefixes: tuple[str, ...]) -> bool:
    """True when *module* equals or lives under any dotted prefix."""
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


@dataclass(frozen=True)
class AnalysisConfig:
    """Scoping knobs for the rule set (defaults match this repo)."""

    #: Packages whose code must be a pure function of its inputs —
    #: RPR001 (no wall clock / unseeded randomness) binds here.
    pure_packages: tuple[str, ...] = (
        "repro.config",
        "repro.core",
        "repro.dram",
        "repro.os",
        "repro.cpu",
        "repro.workloads",
        "repro.telemetry",
    )

    #: Engine/controller packages where heap ordering feeds event order —
    #: RPR004 (heap tie-breaks) binds here.
    heap_packages: tuple[str, ...] = (
        "repro.core",
        "repro.dram",
        "repro.os",
    )

    #: Modules allowed to drive the event loop (RPR008 exempts these;
    #: everything else in the pure packages runs *inside* callbacks and
    #: must never re-enter ``engine.run``).
    engine_driver_modules: tuple[str, ...] = (
        "repro.core.engine",
        "repro.core.system",
        "repro.core.simulator",
        "repro.bench",
    )

    #: Reporter/CLI modules exempt from the ``print`` ban (RPR007).
    print_exempt: tuple[str, ...] = (
        "repro.analysis",
        "repro.experiments.report",
    )

    #: Packages whose ``engine.schedule*`` wiring feeds simulation event
    #: order — RPR011 (snapshot coverage) and RPR012 (event wiring) bind
    #: here.  Driver/bench code outside these packages may schedule
    #: freely.
    event_packages: tuple[str, ...] = (
        "repro.core",
        "repro.dram",
        "repro.os",
        "repro.cpu",
        "repro.telemetry",
    )

    #: Modules documented to rely on the same-cycle bucket-insertion-
    #: order invariant (PR 4: same-cycle engine bucket insertion order
    #: *is* ChannelBus arbitration order).  Same-cycle scheduling —
    #: ``schedule(0, ...)`` / ``schedule_at(now, ...)`` — anywhere else
    #: is flagged by RPR012: a new module silently joining the
    #: arbitration order is exactly how ordering bugs ship.
    order_exempt_modules: tuple[str, ...] = (
        "repro.core.engine",
        "repro.core.system",
        "repro.core.simulator",
        "repro.dram.controller",
        "repro.dram.refresh",
    )

    #: Methods whose ``self.X`` assignments do not count as runtime
    #: mutation for RPR011 snapshot coverage: construction, the restore
    #: half of the protocol, and deserialization re-create state rather
    #: than mutating it mid-run.
    snapshot_exempt_methods: tuple[str, ...] = (
        "__init__",
        "__post_init__",
        "__setstate__",
        "restore_state",
        "from_dict",
    )

    #: Restrict the run to these codes (``None`` = every registered rule).
    select: frozenset[str] | None = None

    def rule_enabled(self, code: str) -> bool:
        return self.select is None or code in self.select
