#!/usr/bin/env python
"""Run the benchmark in alternated pairs on two checkouts and compare them.

A performance claim compares a parent commit with a change by pairs of
benchmark runs: each pair runs ``perfbench/run.py`` once in each tree,
odd pairs parent first and even pairs change first, so a drift of the
host's speed over the session falls on both sides alike.

Usage::

    python scripts/bench_pairs.py PARENT CHANGE --workload wl6_codesign_long \\
        --seeds 1,2 --pairs 10

Each run is the benchmark's declared command (``command`` in the
change's ``BENCHMARK.json``) with ``--workload W --seed S --seconds N
--trace 0``, N being the file's ``run_seconds``, started in the tree's
root with ``PYTHONDONTWRITEBYTECODE=1``, so every run compiles the
simulator from source.  The script refuses to
start while either tree holds a ``__pycache__`` under ``src/``: a stale
one in a single tree skips that tree's compile and skews every set-up
reading.

For each seed and each end-to-end metric of ``BENCHMARK.json`` it prints
both sides' medians with quartiles, the change of the median, the pairs
the change won (ties count for neither), and a verdict against the
metric's bound:

* ``gain``: the change won at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's interquartile
  range;
* ``WORSE``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: neither, and the parent's interquartile range is
  wider than the bound, so the runs cannot tell;
* ``within bound``: otherwise.

The exit status is 1 when any run exits non-zero, reads ``correct:
false`` or reports a failed operation; 2 on a usage error or a
``__pycache__``; else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Share of the pairs the change must win for a gain.
WIN_SHARE = 0.9


class RunFailed(Exception):
    """One benchmark run exited non-zero or printed no result line."""


def pycache_dirs(tree: Path) -> list[Path]:
    """Every ``__pycache__`` directory under the tree's ``src/``."""
    return sorted((tree / "src").rglob("__pycache__"))


def _value(v: float) -> str:
    return f"{v:.4f}" if abs(v) < 100 else f"{v:,.0f}"


def run_once(command: list[str], tree: Path, workload: str, seed: int,
             seconds: str) -> dict:
    """One benchmark run in *tree*; its last output line, parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", seconds, "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{' '.join(argv)} in {tree} exited {done.returncode}: "
                        f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_pairs(trees: dict[str, Path], command: list[str], workload: str,
              seed: int, pairs: int, seconds: str) -> dict:
    """*pairs* alternated runs of each side at one seed: ``{side: [result,
    ...]}`` in pair order, results as ``perfbench/run.py`` prints them."""
    runs: dict[str, list] = {side: [] for side in trees}
    sides = list(trees)
    for pair in range(1, pairs + 1):
        order = sides if pair % 2 else sides[::-1]
        for side in order:
            out = run_once(command, trees[side], workload, seed, seconds)
            runs[side].append(out)
            values = ", ".join(
                f"{name}={_value(metric['value'])}"
                for name, metric in out["metrics"].items()
            )
            print(f"  pair {pair} {side}: correct={out['correct']} "
                  f"failed={out['failed']} {values}", flush=True)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """The verdict on one metric from paired values (pair *i* of each
    list ran together)."""
    sign = 1 if better == "higher" else -1
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    delta = (c_median - p_median) / p_median if p_median else 0.0
    if won >= WIN_SHARE * len(parent) and sign * (c_median - p_median) > p3 - p1:
        verdict = "gain"
    elif -sign * delta > bound:
        verdict = "WORSE"
    elif p_median and (p3 - p1) / abs(p_median) > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": (p1, p_median, p3), "change": (c1, c_median, c3),
            "delta": delta, "won": won, "verdict": verdict}


def failures(runs: dict) -> list[str]:
    """Runs that read ``correct: false`` or report failed operations."""
    return [
        f"{side} run {i}: correct={out['correct']} failed={out['failed']}"
        for side, outs in runs.items()
        for i, out in enumerate(outs, 1)
        if out["correct"] is not True or out["failed"] > 0
    ]


def report(runs: dict, end_to_end: list[dict]) -> list[str]:
    """The comparison table, one row per declared metric both sides
    reported."""
    pairs = len(runs["parent"])
    rows = [f"{'metric':<22} {'parent median [q1, q3]':<27} "
            f"{'change median [q1, q3]':<27} {'change':>8} {'won':>7} "
            f"{'bound':>6}  verdict"]
    for metric in end_to_end:
        name = metric["name"]
        if not all(name in out["metrics"] for outs in runs.values() for out in outs):
            continue
        values = {side: [out["metrics"][name]["value"] for out in outs]
                  for side, outs in runs.items()}
        got = compare(values["parent"], values["change"], metric["better"],
                      metric["bound"])
        sides = ["{1} [{0}, {2}]".format(*map(_value, got[side]))
                 for side in ("parent", "change")]
        rows.append(
            f"{name + ' (' + metric['unit'] + ')':<22} {sides[0]:<27} {sides[1]:<27} "
            f"{got['delta']:>+8.1%} {got['won']:>3}/{pairs:<3} "
            f"{metric['bound']:>6.0%}  {got['verdict']}"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Alternated parent/change pairs of perfbench runs.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1",
                        help="comma-separated seeds, each run in its own pairs")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = [int(seed) for seed in args.seeds.split(",")]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    stale = [path for tree in trees.values() for path in pycache_dirs(tree)]
    if stale:
        print("remove every __pycache__ under src/ first:", file=sys.stderr)
        for path in stale:
            print(f"  {path}", file=sys.stderr)
        return 2
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    failed = []
    for seed in seeds:
        print(f"{args.workload} seed {seed}: {args.pairs} pairs "
              "(odd pairs run the parent first)", flush=True)
        try:
            runs = run_pairs(trees, benchmark["command"], args.workload, seed,
                             args.pairs, str(benchmark["run_seconds"]))
        except RunFailed as exc:
            print(f"FAILED {exc}", file=sys.stderr)
            return 1
        for line in report(runs, benchmark["end_to_end"]):
            print(line)
        failed += [f"seed {seed} {line}" for line in failures(runs)]
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
