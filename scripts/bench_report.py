#!/usr/bin/env python
"""Emit a BENCH_<date>.json perf-trajectory report.

Runs every micro-kernel in :mod:`repro.bench.kernels` plus one WL-6
codesign end-to-end simulation and writes a JSON report with wall
times, events/sec and ``events_processed``.  Stdlib only.

Usage::

    PYTHONPATH=src python scripts/bench_report.py [--out DIR] [--repeat N]
        [--check-determinism] [--quick] [--label SUFFIX]

``--check-determinism`` runs the operation-count/digest portion twice
and exits non-zero if any kernel's operation count, the end-to-end
``events_processed`` or the result digest differ between the two runs —
wall times are reported but never gated (CI machines are noisy; event
schedules must not be).
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import (  # noqa: E402
    KERNELS,
    controller_cost_models,
    determinism_signature,
    run_kernel,
    service_tier_histograms,
    wl6_codesign_end_to_end,
    workload_stream_digests,
)


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def collect(repeat: int, quick: bool) -> dict:
    kernels = [run_kernel(name, repeat=repeat).to_dict() for name in KERNELS]
    report = {
        "schema": 1,
        "date": datetime.date.today().isoformat(),
        "git": git_revision(),
        "python": platform.python_version(),
        "kernels": kernels,
        # Dispatch-work counters from one extra (untimed) run of each
        # controller kernel — all pure functions of the kernel arguments.
        "cost_model": controller_cost_models(),
        # Digests of seeded generator streams (one extra, untimed run);
        # exact-gated like the operation counts.
        "streams": workload_stream_digests(),
        # Per-tier service latency-histogram snapshots (deterministic half
        # only).  Informational: bench_trend.py renders them but the
        # determinism signature deliberately excludes them.
        "service": service_tier_histograms(),
    }
    if not quick:
        report["end_to_end"] = wl6_codesign_end_to_end()
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--repeat", type=int, default=5, help="best-of repeats")
    parser.add_argument(
        "--quick", action="store_true", help="skip the WL-6 end-to-end run"
    )
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="run twice; fail if event counts, result digests or any "
             "dispatch cost-model counter differ",
    )
    parser.add_argument(
        "--label",
        default="",
        help="suffix appended to the report filename "
             "(BENCH_<date><label>.json) for same-day re-baselines",
    )
    args = parser.parse_args()

    report = collect(args.repeat, args.quick)
    if args.check_determinism:
        second = collect(1, args.quick)
        first_sig = determinism_signature(report)
        second_sig = determinism_signature(second)
        if first_sig != second_sig:
            diff = {
                key: (first_sig.get(key), second_sig.get(key))
                for key in sorted(set(first_sig) | set(second_sig))
                if first_sig.get(key) != second_sig.get(key)
            }
            print("DETERMINISM FAILURE: runs disagree on", file=sys.stderr)
            print(json.dumps(diff, indent=2), file=sys.stderr)
            return 1
        # The signature pins the externally visible fields; the double
        # run must also agree on every internal sweep-work counter.
        if report["cost_model"] != second["cost_model"]:
            print(
                "DETERMINISM FAILURE: dispatch cost models disagree",
                file=sys.stderr,
            )
            print(
                json.dumps(
                    {"first": report["cost_model"],
                     "second": second["cost_model"]},
                    indent=2,
                ),
                file=sys.stderr,
            )
            return 1
        report["determinism_checked"] = True

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{report['date']}{args.label}.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    for kernel in report["kernels"]:
        print(
            f"  {kernel['name']:30s} {kernel['wall_seconds']*1000:9.2f} ms"
            f"  {kernel['ops_per_sec']:>12,d} ops/s"
        )
    end = report.get("end_to_end")
    if end is not None:
        print(
            f"  {end['name']:30s} {end['wall_seconds']:9.3f} s "
            f" {end['events_processed']:,} events"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
