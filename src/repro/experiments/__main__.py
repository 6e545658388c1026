"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments figure10          # one figure
    python -m repro.experiments all               # everything
    python -m repro.experiments figure3 --profile full
    python -m repro.experiments all --jobs 8      # parallel sweep
    python -m repro.experiments figure13 --no-cache

Each experiment prints the same table its pytest benchmark saves under
``benchmarks/results/``.  Sweep points fan out over ``--jobs`` worker
processes (default: ``REPRO_JOBS`` or the CPU count) and results persist
in a content-addressed disk cache (``--cache-dir``, ``REPRO_CACHE_DIR``
or ``~/.cache/repro``) so warm re-runs execute zero simulations.
"""

from __future__ import annotations

import argparse
import sys
import time

import repro.experiments.ablations as ablations
import repro.experiments.figure3 as figure3
import repro.experiments.figure4 as figure4
import repro.experiments.figure5 as figure5
import repro.experiments.figure9 as figure9
import repro.experiments.figure10 as figure10
import repro.experiments.figure11 as figure11
import repro.experiments.figure12 as figure12
import repro.experiments.figure13 as figure13
import repro.experiments.figure14 as figure14
import repro.experiments.figure15 as figure15
from repro.experiments.report import format_run_stats
from repro.experiments.runner import FULL_PROFILE, QUICK_PROFILE, SweepRunner


def _simple(module):
    def run(runner):
        return module.format_results(module.run(runner))

    return run


def _figure5(runner):
    return figure5.format_results(figure5.run())


def _ablations(runner):
    rows = []
    rows += ablations.component_study(runner)
    rows += ablations.banks_sweep(runner)
    rows += ablations.eta_sweep(runner)
    return ablations.format_results(rows)


def _figure9(runner, trace_dir=None):
    return figure9.format_results(figure9.run(trace_dir=trace_dir))


EXPERIMENTS = {
    "figure3": _simple(figure3),
    "figure4": _simple(figure4),
    "figure5": _figure5,
    "figure9": _figure9,
    "figure10": _simple(figure10),
    "figure11": _simple(figure11),
    "figure12": _simple(figure12),
    "figure13": _simple(figure13),
    "figure14": _simple(figure14),
    "figure15": _simple(figure15),
    "ablations": _ablations,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure to regenerate",
    )
    parser.add_argument(
        "--profile",
        choices=["quick", "full"],
        default="quick",
        help="simulation effort per data point (default: quick)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sweep points "
             "(default: REPRO_JOBS or the CPU count)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persistent result-cache directory "
             "(default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write Chrome trace-event JSON files for traced experiments "
             "(currently figure9) into DIR",
    )
    args = parser.parse_args(argv)

    profile = FULL_PROFILE if args.profile == "full" else QUICK_PROFILE
    runner = SweepRunner(
        profile,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.time()
        if name == "figure9":
            print(_figure9(runner, trace_dir=args.trace_dir))
        else:
            print(EXPERIMENTS[name](runner))
        print(f"[{name}: {time.time() - start:.1f}s, "
              f"{format_run_stats(runner)}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
