"""CLI for observability tooling.

``python -m repro.obs diff a b`` compares two JSON artifacts through
:func:`repro.api.diff`; exit codes follow
:class:`~repro.obs.diff.DiffResult`: 0 identical, 1 differences all
within tolerance, 2 regression (or usage error, such as a file that is
not JSON).
Given two *directories* instead of files, the diff runs sweep-level:
entries are matched by spec content hash, each matched pair diffs
leaf-by-leaf under the same tolerance rules, and specs present on only
one side count as regressions (:mod:`repro.obs.sweepdiff`).

``python -m repro.obs trace events.jsonl -o trace.json`` replays one or
more JSONL event shards (in argument order) through the Chrome trace
builder — concatenating a pre-checkpoint shard with its resumed
continuation reproduces the uninterrupted run's trace byte-for-byte.

``python -m repro.obs top HOST:PORT`` polls a running sweep service's
``status`` + ``metrics`` ops and renders a live dashboard: per-tier
hit-rates, in-flight jobs, latency-histogram sparklines, and the
slowest recent spans (:mod:`repro.obs.top`).
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.diff import ToleranceRule


def _parse_rule(text: str, kind: str) -> ToleranceRule:
    """``PATTERN=VALUE`` -> ToleranceRule (kind: 'rel' or 'abs')."""
    pattern, sep, value = text.partition("=")
    if not sep or not pattern:
        raise argparse.ArgumentTypeError(
            f"expected PATTERN=VALUE, got {text!r}"
        )
    try:
        tol = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tolerance in {text!r} is not a number"
        ) from None
    if tol < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0: {text!r}")
    if kind == "rel":
        return ToleranceRule(pattern, rel_tol=tol)
    return ToleranceRule(pattern, abs_tol=tol)


def _cmd_top(args, parser) -> int:
    """Poll-and-render loop for the ``top`` dashboard."""
    import time

    from repro.errors import ServiceError
    from repro.obs.top import render_top
    from repro.service.client import ServiceClient

    host, sep, port_text = args.server.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", args.server
    try:
        port = int(port_text)
    except ValueError:
        parser.error(f"bad server address {args.server!r}; want HOST:PORT")
    frames = 0
    try:
        with ServiceClient(host, port, connect_retries=2) as client:
            while args.iterations is None or frames < args.iterations:
                counters = client.status()
                metrics = client.metrics()
                frame = render_top(
                    counters, metrics, target=f"{host}:{port}"
                )
                if not args.no_clear and frames:
                    # Redraw in place: home the cursor and clear below.
                    print("\x1b[H\x1b[J", end="")
                print(frame, flush=True)
                frames += 1
                if args.iterations is not None and frames >= args.iterations:
                    break
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability tooling for simulation artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser(
        "diff",
        help="compare two result JSON files, or two sweep directories",
        description=(
            "Compare two JSON artifacts leaf-by-leaf, or two sweep "
            "directories spec-by-spec (entries matched by spec content "
            "hash; unmatched specs are regressions). Exact by default; "
            "--tol/--abs-tol loosen matching paths. Exit code: 0 identical, "
            "1 within tolerance, 2 regression."
        ),
    )
    diff.add_argument("a", help="baseline JSON file or sweep directory")
    diff.add_argument("b", help="candidate JSON file or sweep directory")
    diff.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="PATTERN=REL",
        type=lambda s: _parse_rule(s, "rel"),
        help="relative tolerance for leaf paths matching the glob "
        "(e.g. --tol 'tasks.*.avg_read_latency_cycles=1e-9')",
    )
    diff.add_argument(
        "--abs-tol",
        action="append",
        default=[],
        metavar="PATTERN=ABS",
        type=lambda s: _parse_rule(s, "abs"),
        help="absolute tolerance for leaf paths matching the glob",
    )
    diff.add_argument(
        "--quiet", action="store_true", help="suppress the report, exit code only"
    )

    trace = sub.add_parser(
        "trace",
        help="replay JSONL event shards into a Chrome trace JSON",
        description=(
            "Feed one or more JSONL event files (in order) through the "
            "Chrome trace builder. The output is a pure function of the "
            "concatenated event stream, so time-sharded runs replay to "
            "the same bytes as an uninterrupted one."
        ),
    )
    trace.add_argument("shards", nargs="+", metavar="EVENTS_JSONL",
                       help="JSONL event files, oldest shard first")
    trace.add_argument("-o", "--out", required=True, metavar="PATH",
                       help="Chrome trace JSON output path")
    trace.add_argument("--include-dram-commands", action="store_true",
                       help="keep high-volume per-command DRAM slices")

    top = sub.add_parser(
        "top",
        help="live dashboard for a running sweep service",
        description=(
            "Poll a running `python -m repro serve` instance and render "
            "tier hit-rates, in-flight jobs, latency-histogram "
            "sparklines, and the slowest recent spans."
        ),
    )
    top.add_argument("server", metavar="HOST:PORT",
                     help="service address (HOST:PORT, or just PORT "
                          "for 127.0.0.1)")
    top.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                     help="seconds between polls (default 2)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="render N frames then exit (default: until ^C)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of redrawing in place")

    args = parser.parse_args(argv)
    if args.command == "top":
        return _cmd_top(args, parser)
    if args.command == "trace":
        from repro.errors import ConfigError
        from repro.telemetry.sinks import ChromeTraceSink, read_jsonl

        sink = ChromeTraceSink(
            include_dram_commands=args.include_dram_commands
        )
        total = 0
        for shard in args.shards:
            try:
                events = read_jsonl(shard)
            except ConfigError as exc:
                print(f"cannot replay: {exc}", file=sys.stderr)
                return 1
            for event in events:
                sink.emit(event)
            total += len(events)
        sink.write(args.out)
        print(
            f"replayed {total} events from {len(args.shards)} shard(s) "
            f"-> {args.out}"
        )
        return 0
    from repro import api
    from repro.errors import ConfigError

    try:
        result = api.diff(args.a, args.b, rules=args.tol + args.abs_tol)
    except (ValueError, ConfigError) as exc:  # a file and a directory, or a non-JSON file
        parser.error(str(exc))
    if not args.quiet:
        print(result.report())
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
