"""Command-line interface: ``python -m repro.analysis [paths] ...``.

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage or
environment error (unreadable baseline, unknown rule code).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    filter_baselined,
    load_baseline_entries,
    write_baseline,
)
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_project
from repro.analysis.registry import all_rules
from repro.errors import ConfigError

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism & purity linter for the repro simulator.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        nargs="?",
        const=str(DEFAULT_BASELINE),
        default=None,
        metavar="PATH",
        help=(
            "suppress findings recorded in this baseline file "
            f"(default path when given bare: {DEFAULT_BASELINE})"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        nargs="?",
        const=str(DEFAULT_BASELINE),
        default=None,
        metavar="PATH",
        help="write current findings to a baseline file and exit 0",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (e.g. RPR001,RPR004)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print a run-summary line (rules, files, wall time) to stderr",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            out.write(f"{rule.code}  {rule.name}\n    {rule.description}\n")
        return EXIT_CLEAN

    select = None
    if args.select:
        select = frozenset(c.strip().upper() for c in args.select.split(",") if c.strip())
        known = {rule.code for rule in rules}
        unknown = select - known
        if unknown:
            sys.stderr.write(f"error: unknown rule code(s): {sorted(unknown)}\n")
            return EXIT_ERROR
    config = AnalysisConfig(select=select)

    baseline_entries = None
    if args.baseline is not None:
        try:
            baseline_entries = load_baseline_entries(Path(args.baseline))
        except ConfigError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_ERROR

    report = analyze_project(
        [Path(p) for p in args.paths],
        config,
        rules=rules,
        baseline_entries=baseline_entries,
        baseline_path=args.baseline,
    )
    findings = report.findings
    if args.stats:
        sys.stderr.write(report.stats.render() + "\n")

    if args.write_baseline is not None:
        count = write_baseline(Path(args.write_baseline), findings)
        out.write(
            f"wrote baseline {args.write_baseline} "
            f"({count} finding(s) grandfathered)\n"
        )
        return EXIT_CLEAN

    suppressed = 0
    if baseline_entries is not None:
        findings, suppressed = filter_baselined(findings, set(baseline_entries))

    if args.format == "json":
        from repro.analysis.reporters import render_json

        rendered = render_json(findings, suppressed)
    elif args.format == "sarif":
        from repro.analysis.reporters import render_sarif

        rendered = render_sarif(findings, rules=rules, suppressed_count=suppressed)
    else:
        from repro.analysis.reporters import render_text

        rendered = render_text(findings, suppressed)
    out.write(rendered + "\n")
    return EXIT_FINDINGS if findings else EXIT_CLEAN
