"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments figure10          # one figure
    python -m repro.experiments all               # everything
    python -m repro.experiments figure3 --profile full
    python -m repro.experiments all --jobs 8      # parallel sweep
    python -m repro.experiments figure13 --no-cache

Each experiment prints the table :mod:`repro.experiments.figures`
describes, the same table ``pytest benchmarks`` saves under
``benchmarks/results/``.  Sweep points fan out over ``--jobs`` worker
processes (default: ``REPRO_JOBS`` or the CPU count) and results persist
in a content-addressed disk cache (``--cache-dir``, ``REPRO_CACHE_DIR``
or ``~/.cache/repro``) so warm re-runs execute zero simulations.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.__main__ import common_parent, resolve_jobs
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.report import format_run_stats
from repro.experiments.runner import FULL_PROFILE, QUICK_PROFILE, SweepRunner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures.",
        parents=[common_parent()],
    )
    parser.add_argument(
        "experiment",
        choices=sorted(FIGURES) + ["all"],
        help="which figure to regenerate",
    )
    parser.add_argument(
        "--profile",
        choices=["quick", "full"],
        default="quick",
        help="simulation effort per data point (default: quick)",
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
        jobs=resolve_jobs(parser, args.jobs),
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    names = sorted(FIGURES) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.time()
        kwargs = {"trace_dir": args.trace_dir} if name == "figure9" else {}
        print(run_figure(FIGURES[name], runner, **kwargs).text)
        print(f"[{name}: {time.time() - start:.1f}s, "
              f"{format_run_stats(runner)}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
