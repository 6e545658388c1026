"""Command-line interface: ``python -m repro.analysis [paths] ...``.

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage error
(unknown rule code).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_project
from repro.analysis.registry import all_rules

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

    report = analyze_project([Path(p) for p in args.paths], config)
    if args.stats:
        sys.stderr.write(report.stats.render() + "\n")

    if args.format == "json":
        from repro.analysis.reporters import render_json

        rendered = render_json(report.findings)
    elif args.format == "sarif":
        from repro.analysis.reporters import render_sarif

        rendered = render_sarif(report.findings, rules=rules)
    else:
        from repro.analysis.reporters import render_text

        rendered = render_text(report.findings)
    out.write(rendered + "\n")
    return EXIT_FINDINGS if report.findings else EXIT_CLEAN
