#!/usr/bin/env python
"""Gate a fresh BENCH_<date>.json report against the latest checked-in one.

Every checked-in ``BENCH_*.json`` (written by ``scripts/bench_report.py``)
is one point on the repo's performance record.  This tool loads them
oldest first, prints how the newest report's service submissions
resolved and, in ``--gate`` mode, compares a freshly produced report
against the latest checked-in one.  The determinism signature is
``repro.bench.determinism_signature``, the one ``bench_report.py``
checks too.  Wall times are not shown here: ``bench_report.py`` prints
the kernel walls and ``perfbench/run.py`` records end-to-end walls.

Usage::

    python scripts/bench_trend.py                      # newest service tiers
    python scripts/bench_trend.py --gate --fresh /tmp/out/BENCH_*.json

The gate compares the *determinism signature* — per-kernel operation
counts, the end-to-end ``events_processed``, the result digest, the
seeded workload-stream digest and the externally pinned dispatch
cost-model fields.  Those are pure functions
of the code and must match exactly; any drift means an unintended
behavior change (or a forgotten re-baseline).  Signature keys the
baseline predates (new kernels, new cost-model fields) are informational
only.  On top of the exact check, the dispatch cost-model *ratios*
(dead-pick share, stale-skip sweep length, row-hit pop share) are
compared with tolerances and fail the gate only when they drift in the
regressing direction — a relative hot-path regression check that still
lets internal-only scheduler changes through.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

determinism_signature = importlib.import_module("repro.bench").determinism_signature


#: (field, direction, abs_tol, rel_tol) per controller kernel.  Direction
#: names the regressing drift: ``up`` fails when the fresh ratio rises
#: above baseline + tolerance, ``down`` when it falls below.  Tolerance is
#: max(abs_tol, |baseline| * rel_tol) so near-zero baselines are not
#: impossible to satisfy.
COST_MODEL_RATIO_GATES = (
    ("dead_pick_ratio", "up", 0.01, 0.10),
    ("stale_skips_per_pop", "up", 0.02, 0.10),
    ("row_hit_pop_ratio", "down", 0.01, 0.10),
)


def load_reports(directory: Path) -> list:
    """All BENCH_*.json reports in *directory*, oldest first."""
    reports = []
    for path in sorted(directory.glob("BENCH_*.json")):
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
        report["_path"] = str(path)
        reports.append(report)
    return reports


def service_tier_summary(report: dict) -> str:
    """Per-tier request counts from the report's ``service`` section.

    Informational only: the service histograms sit outside the
    determinism signature, so this never gates — it just shows how the
    newest report's bench submissions resolved (execute / memo / cache)
    and how many simulated-cycle buckets each tier's histogram filled.
    """
    service = report.get("service")
    if not service:
        return "service tiers: (not recorded in this report)"
    parts = []
    for phase in sorted(service):
        snapshot = service[phase]
        tiers = snapshot.get("tiers", {})
        cycles = snapshot.get("cycles", {})
        tier_bits = ", ".join(
            f"{tier}={tiers[tier]}"
            f" ({len(cycles.get(tier, {}).get('buckets', {}))} bkt)"
            for tier in sorted(tiers)
        )
        parts.append(f"{phase}: {tier_bits or 'no requests'}")
    return "service tiers (informational): " + "; ".join(parts)


def gate(latest: dict, fresh: dict) -> tuple[list, list]:
    """Determinism comparison: ``(problems, notes)``.

    Keys present in both signatures must match exactly, and a key that
    vanished from the fresh report is lost coverage — both are problems.
    A key only the fresh report has (a newly added kernel or cost-model
    field, not yet re-baselined) cannot regress against anything, so it
    is reported as an informational note instead of failing the gate.
    """
    baseline_sig = determinism_signature(latest)
    fresh_sig = determinism_signature(fresh)
    problems, notes = [], []
    for key in sorted(baseline_sig.keys() | fresh_sig.keys()):
        a, b = baseline_sig.get(key), fresh_sig.get(key)
        if key not in baseline_sig:
            notes.append(f"{key}: new in fresh ({b!r}); no baseline yet")
        elif key not in fresh_sig:
            problems.append(f"{key}: in checked-in report but missing from fresh")
        elif a != b:
            problems.append(f"{key}: checked-in {a!r} != fresh {b!r}")
    return problems, notes


def cost_model_gate(latest: dict, fresh: dict) -> tuple[list, list]:
    """Relative hot-path regression check: ``(problems, notes)``.

    Compares the dispatch cost-model *ratios* (scheduling waste per pick,
    lazy-sweep work per pop, row-hit pop share) per controller kernel
    against the checked-in baseline with the tolerances in
    :data:`COST_MODEL_RATIO_GATES`.  Exact equality is not required —
    internal-only scheduler changes may legitimately shift sweep work —
    but drift in the regressing direction beyond tolerance fails.
    """
    baseline = latest.get("cost_model") or {}
    current = fresh.get("cost_model") or {}
    problems, notes = [], []
    if not baseline:
        if current:
            notes.append("cost model: no checked-in baseline yet")
        return problems, notes
    for name in sorted(set(baseline) - set(current)):
        problems.append(f"cost model for {name}: missing from fresh report")
    for name, model in sorted(current.items()):
        base = baseline.get(name)
        if base is None:
            notes.append(f"cost model for {name}: new in fresh; no baseline yet")
            continue
        for field, direction, abs_tol, rel_tol in COST_MODEL_RATIO_GATES:
            if field not in base or field not in model:
                continue
            before, after = base[field], model[field]
            drift = after - before if direction == "up" else before - after
            allowed = max(abs_tol, abs(before) * rel_tol)
            if drift > allowed:
                worse = "rose" if direction == "up" else "fell"
                problems.append(
                    f"{name}.{field} {worse} {before} -> {after} "
                    f"(drift {drift:.6f} > tolerance {allowed:.6f})"
                )
    return problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir", default=str(REPO_ROOT), metavar="PATH",
        help="directory holding the checked-in BENCH_*.json reports "
             "(default: repo root)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="compare --fresh against the latest checked-in report and "
             "exit 1 on any determinism-signature mismatch",
    )
    parser.add_argument(
        "--fresh", metavar="PATH", default=None,
        help="freshly produced BENCH_*.json to gate (required with --gate)",
    )
    args = parser.parse_args(argv)

    reports = load_reports(Path(args.dir))
    if not reports:
        # An empty trajectory is a usage error when browsing, but the
        # gate must not fail a fresh checkout that simply has no
        # checked-in baseline yet.
        if args.gate:
            print(
                f"no trajectory yet: no checked-in BENCH_*.json under "
                f"{args.dir}; nothing to gate against"
            )
            return 0
        print(f"no BENCH_*.json reports under {args.dir}", file=sys.stderr)
        return 1
    print(service_tier_summary(reports[-1]))

    if not args.gate:
        return 0
    if args.fresh is None:
        parser.error("--gate requires --fresh PATH")
    with open(args.fresh, "r", encoding="utf-8") as f:
        fresh = json.load(f)
    latest = reports[-1]
    problems, notes = gate(latest, fresh)
    ratio_problems, ratio_notes = cost_model_gate(latest, fresh)
    print(
        f"\ngate: fresh {args.fresh} vs checked-in {latest['_path']}"
    )
    for note in notes + ratio_notes:
        print(f"  note: {note}")
    if problems or ratio_problems:
        if problems:
            print("DETERMINISM REGRESSION:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
        if ratio_problems:
            print("HOT-PATH REGRESSION (cost-model ratios):", file=sys.stderr)
            for problem in ratio_problems:
                print(f"  {problem}", file=sys.stderr)
        print(
            "(if the change is intentional, regenerate the checked-in "
            "report with scripts/bench_report.py)",
            file=sys.stderr,
        )
        return 1
    print("gate: determinism signature and cost-model ratios within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
