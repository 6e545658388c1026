"""Engine dispatch self-profiling: where do simulation events go?

The calendar-queue engine dispatches bare callables; it has no idea
which subsystem a callback belongs to.  :class:`EngineProfiler` recovers
that attribution after the fact from the callable itself — bound methods
resolve to their underlying function, so every ``Core._issue`` across
all cores aggregates into one row — and rolls callbacks up into
subsystems by module segment (``repro.cpu``, ``repro.dram`` …).

Two kinds of numbers come out:

* **event counts** — a pure function of the simulation, identical across
  runs and machines; safe to diff and gate on;
* **cumulative wall time** — an artifact of the machine and the moment;
  reported for human eyes only and never part of any determinism check.

The engine stays wall-clock-free (``repro.core`` is a pure package): the
profiler *injects* its clock into the engine's drain loop via
``Engine.set_profiler``.
"""

from __future__ import annotations

import time


class EngineProfiler:
    """Aggregates per-callback-owner dispatch counts and wall time.

    ``clock`` is any zero-argument callable returning seconds as a float;
    it defaults to :func:`time.perf_counter` and exists as a parameter so
    tests can drive the profiler with a deterministic fake clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # owner key -> [event count, cumulative seconds]
        self._stats: dict[str, list] = {}
        # callable identity -> owner key; bound methods are transient
        # objects, so the cache keys on the underlying function, which is
        # stable for the lifetime of the class.
        self._names: dict[object, str] = {}

    def record(self, fn, elapsed: float) -> None:
        """Attribute one dispatched event of ``elapsed`` seconds to *fn*."""
        target = getattr(fn, "__func__", fn)
        key = self._names.get(target)
        if key is None:
            module = getattr(target, "__module__", None) or "<unknown>"
            qualname = getattr(target, "__qualname__", None) or repr(target)
            key = self._names[target] = f"{module}.{qualname}"
        stats = self._stats.get(key)
        if stats is None:
            # Distinct callables can share a key (e.g. two lambdas from
            # the same scope) — aggregate, never reset.
            stats = self._stats[key] = [0, 0.0]
        stats[0] += 1
        stats[1] += elapsed

    @staticmethod
    def _subsystem(owner: str) -> str:
        """``repro.cpu.core.Core._issue`` -> ``cpu``; foreign code keeps
        its top-level module name."""
        parts = owner.split(".")
        if parts[0] == "repro" and len(parts) > 1:
            return parts[1]
        return parts[0]

    def report(self) -> dict:
        """JSON-able profile: per-callback and per-subsystem attribution.

        Sorted by descending event count (owner name as tie-break) so the
        row *order* is deterministic even though the times are not.
        """
        callbacks = [
            {"owner": owner, "events": stats[0], "wall_seconds": stats[1]}
            for owner, stats in self._stats.items()
        ]
        callbacks.sort(key=lambda row: (-row["events"], row["owner"]))

        rollup: dict[str, list] = {}
        for row in callbacks:
            entry = rollup.setdefault(self._subsystem(row["owner"]), [0, 0.0])
            entry[0] += row["events"]
            entry[1] += row["wall_seconds"]
        subsystems = [
            {"subsystem": name, "events": stats[0], "wall_seconds": stats[1]}
            for name, stats in rollup.items()
        ]
        subsystems.sort(key=lambda row: (-row["events"], row["subsystem"]))

        return {
            "schema": 1,
            "events_total": sum(row["events"] for row in callbacks),
            "wall_total_seconds": sum(row["wall_seconds"] for row in callbacks),
            "callbacks": callbacks,
            "subsystems": subsystems,
        }

    def format_table(self, top: int = 12) -> str:
        """Human-readable subsystem/callback table for CLI output."""
        report = self.report()
        total_events = report["events_total"] or 1
        total_wall = report["wall_total_seconds"]
        lines = [
            f"engine dispatch profile: {report['events_total']} events, "
            f"{total_wall * 1e3:.1f} ms in callbacks",
            f"  {'subsystem':<12} {'events':>10} {'share':>7} {'wall ms':>9}",
        ]
        for row in report["subsystems"]:
            lines.append(
                f"  {row['subsystem']:<12} {row['events']:>10} "
                f"{row['events'] / total_events:>6.1%} "
                f"{row['wall_seconds'] * 1e3:>9.1f}"
            )
        lines.append(f"  top callbacks (of {len(report['callbacks'])}):")
        for row in report["callbacks"][:top]:
            lines.append(
                f"    {row['events']:>10}  {row['wall_seconds'] * 1e3:>8.1f} ms"
                f"  {row['owner']}"
            )
        return "\n".join(lines)
