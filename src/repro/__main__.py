"""Command-line entry point: ``run``, ``sweep``, ``serve``, ``submit``.

Usage::

    python -m repro run WL-6 codesign
    python -m repro run WL-1 all_bank --density 24 --trefw-ms 32
    python -m repro run WL-6 all_bank,per_bank,codesign --jobs 4  # compare
    python -m repro run WL-6 codesign --trace trace.json          # Perfetto
    python -m repro run WL-6 codesign --monitors         # invariant checks
    python -m repro run WL-6 codesign --checkpoint-every 1
    python -m repro run --resume ckpt-400000.json        # continue a shard

    python -m repro sweep --workloads WL-6,WL-8 --scenarios all_bank,codesign \
        --out results/           # hash-keyed spec+result entries

    python -m repro serve --jobs 4 --port 7341           # sweep service
    python -m repro serve --metrics-port 9100 --log-jsonl service.log \
        --span-jsonl spans.jsonl                         # ... observed
    python -m repro submit WL-6 codesign                 # ... and use it
    python -m repro submit --workloads WL-6 --scenarios all_bank,codesign \
        --stream events.jsonl --out results/
    python -m repro submit WL-6 codesign --trace-spans spans-trace.json
    python -m repro submit --ping
    python -m repro submit --metrics                     # scrape in-band

(For regenerating the paper's figures, use ``python -m repro.experiments``.)

All subcommands resolve through the same serializable RunSpec pipeline:
results persist in the content-addressed disk cache (``--cache-dir``,
``REPRO_CACHE_DIR`` or ``~/.cache/repro``; disable with ``--no-cache``).
``run`` with a comma-separated scenario list fans out over ``--jobs``
worker processes.  ``--trace``/``--trace-jsonl`` and ``--metrics-out`` —
and the ``repro.obs`` consumers ``--monitors`` and ``--profile`` — need
the events of a *live* run, so they bypass the result cache; with
several scenarios each output file gets a ``.<scenario>`` suffix before
its extension.

``sweep`` ``--out DIR`` and ``submit`` ``--out DIR`` write one
``<spec-hash>.json`` entry per cell — the directory format
``python -m repro.obs diff DIR_A DIR_B`` compares.

Exit codes with ``--monitors``: 0 clean, 1 violations collected,
2 strict-mode fail-fast.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import argparse

from repro.config.scenarios import SCENARIOS
from repro.units import ms


def result_to_dict(result) -> dict:
    """JSON-serializable view of a RunResult, with derived metrics."""
    data = result.to_dict()
    data["hmean_ipc"] = result.hmean_ipc
    data["avg_read_latency_mem_cycles"] = result.avg_read_latency_mem_cycles
    data["refresh_stall_fraction"] = result.refresh_stall_fraction
    if result.energy is not None:
        data["energy"] = {
            **result.energy.to_dict(),
            "total_mj": result.energy.total_mj,
            "refresh_fraction": result.energy.refresh_fraction,
        }
    return data


def _suffixed(path: str, name: str, multi: bool) -> str:
    """``trace.json`` -> ``trace.codesign.json`` when several scenarios
    share one output flag."""
    if not multi:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}.{name}{p.suffix}"))


def _checkpoint_sink(spec, args, multi: bool):
    """A ``system.run`` checkpoint sink writing files under
    ``--checkpoint-dir``, halting after ``--checkpoint-halt`` writes."""
    from repro.core.checkpoint import save_checkpoint

    directory = Path(args.checkpoint_dir)
    written: list[Path] = []

    def sink(cycle: int, state: dict) -> bool:
        path = directory / _suffixed(
            f"ckpt-{cycle}.json", spec.scenario.name, multi
        )
        save_checkpoint(path, spec, cycle, state)
        written.append(path)
        print(f"  wrote checkpoint {path}")
        return args.checkpoint_halt is not None and (
            len(written) >= args.checkpoint_halt
        )

    return sink


def _run_observed(spec, args, multi: bool, resume=None):
    """Execute one spec live with the requested sinks/monitors attached.

    ``resume = (cycle, state)`` continues from a checkpoint: the system
    is built from the snapshot, which allocates nothing, so the resumed
    event stream starts at the checkpoint cycle and concatenates cleanly
    with the pre-checkpoint shard's stream.  Returns ``None`` when a
    ``--checkpoint-halt`` barrier stopped the run before completion.
    """
    from repro.core.simulator import build_system_from_spec
    from repro.telemetry.hub import Telemetry
    from repro.telemetry.sinks import ChromeTraceSink, JsonlSink

    name = spec.scenario.name
    telemetry = Telemetry()
    chrome = jsonl = suite = profiler = None
    # Attach before system construction: page allocations are emitted
    # while the System is being built, and the suite buffers them until
    # bind().
    if args.trace:
        chrome = telemetry.subscribe(ChromeTraceSink())
    if args.trace_jsonl:
        jsonl = telemetry.subscribe(JsonlSink(_suffixed(args.trace_jsonl, name, multi)))
    if args.monitors:
        from repro.obs.monitors import MonitorSuite

        suite = MonitorSuite(strict=args.monitors == "strict").attach(telemetry)
    try:
        system = build_system_from_spec(
            spec,
            telemetry=telemetry,
            resume_state=resume[1] if resume is not None else None,
        )
        if suite is not None:
            suite.bind(
                system, resume_time=resume[0] if resume is not None else None
            )
        if args.profile:
            from repro.obs.profiler import EngineProfiler

            profiler = EngineProfiler()
            system.engine.set_profiler(profiler)
        sink = None
        if args.checkpoint_every is not None:
            sink = _checkpoint_sink(spec, args, multi)
        result = system.run(
            num_windows=spec.num_windows,
            warmup_windows=spec.warmup_windows,
            sample_windows=spec.sample_windows,
            checkpoint_every=args.checkpoint_every,
            checkpoint_sink=sink,
        )
    finally:
        # Mid-run exceptions (including strict-mode MonitorError) must
        # still flush file sinks: complete JSONL lines beat a lost file.
        telemetry.close()
    if result is None:
        print(f"  halted at checkpoint (cycle {system.engine.now})")
    elif suite is not None:
        suite.finish(system.engine.now)
        result.monitor_violations = suite.violations()
        counts = ", ".join(
            f"{monitor}: {entry['violations']}"
            for monitor, entry in suite.summary().items()
            if entry["active"]
        )
        print(f"  monitors           : {counts}")
        for violation in result.monitor_violations:
            print(f"    VIOLATION {violation}")
    if result is not None and profiler is not None:
        out = _suffixed(args.profile, name, multi)
        report = profiler.report()
        # Deterministic dispatch-work counters ride along with the wall
        # profile (docs/PERFORMANCE.md has the field reference).
        report["dispatch_cost_model"] = system.controller.dispatch_cost_model()
        with open(out, "w") as f:
            json.dump(report, f, indent=2)
        print(f"  wrote profile {out}")
        print("  " + profiler.format_table().replace("\n", "\n  "))
    if chrome is not None:
        out = _suffixed(args.trace, name, multi)
        chrome.write(out)
        events = (
            "" if result is None
            else f" ({len(chrome.trace()['traceEvents'])} events)"
        )
        print(f"  wrote trace {out}{events}")
    if jsonl is not None:
        print(f"  wrote events {jsonl.path} ({jsonl.written} lines)")
    if result is not None and args.metrics_out:
        out = _suffixed(args.metrics_out, name, multi)
        system.metrics().write(out)
        print(f"  wrote metrics {out}")
    return result


# -- argument plumbing ---------------------------------------------------------


def _jobs(text: str) -> int:
    """``--jobs`` value: a whole number of workers, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def resolve_jobs(parser: argparse.ArgumentParser, jobs: int | None) -> int:
    """The worker count: ``--jobs`` when given, else ``REPRO_JOBS`` or
    the CPU count.  A ``REPRO_JOBS`` that ``--jobs`` would reject is a
    usage error too."""
    if jobs is not None:
        return jobs
    from repro.errors import ConfigError
    from repro.experiments.cache import default_jobs

    try:
        return default_jobs()
    except ConfigError as exc:
        parser.error(str(exc))


def common_parent() -> argparse.ArgumentParser:
    """Execution flags shared by every subcommand that runs or serves,
    and by ``python -m repro.experiments`` (which reads ``--jobs``
    through :func:`resolve_jobs`)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=_jobs, default=None, metavar="N",
                        help="worker parallelism "
                             "(default: REPRO_JOBS or the CPU count)")
    parent.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="persistent result-cache directory "
                             "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    parent.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    return parent


def _spec_parent() -> argparse.ArgumentParser:
    """RunSpec-shaping flags shared by run/sweep/submit."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--density", type=int, default=32,
                        help="chip density in Gbit (default 32)")
    parent.add_argument("--trefw-ms", type=float, default=64.0,
                        help="retention window in ms (default 64)")
    parent.add_argument("--windows", type=float, default=2.0,
                        help="measured retention windows (default 2)")
    parent.add_argument("--warmup", type=float, default=0.25,
                        help="warm-up windows (default 0.25)")
    parent.add_argument("--refresh-scale", type=int, default=256,
                        help="simulation scaling factor (default 256)")
    parent.add_argument("--seed", type=int, default=1)
    parent.add_argument("--banks-per-task", type=int, default=None,
                        help="partition width override (co-design scenarios)")
    parent.add_argument("--timeseries", type=int, default=None, metavar="N",
                        help="attach a timeseries with N samples per "
                             "retention window to the result")
    return parent


def _observe_parent() -> argparse.ArgumentParser:
    """Live-run observation flags (run subcommand only)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON of the run "
                             "(load in Perfetto; bypasses the result cache)")
    parent.add_argument("--trace-jsonl", metavar="PATH", default=None,
                        help="write the raw event stream as JSON lines "
                             "(bypasses the result cache)")
    parent.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the flattened metrics snapshot as JSON "
                             "(bypasses the result cache)")
    parent.add_argument("--monitors", nargs="?", const="collect",
                        choices=["collect", "strict"], default=None,
                        help="run invariant monitors over the event stream "
                             "(collect: report violations and exit 1 if any; "
                             "strict: fail fast with exit 2; "
                             "bypasses the result cache)")
    parent.add_argument("--profile", metavar="PATH", default=None,
                        help="profile engine dispatch per subsystem and write "
                             "the report as JSON (bypasses the result cache)")
    parent.add_argument("--checkpoint-every", type=float, default=None,
                        metavar="N",
                        help="write a checkpoint at every N retention-window "
                             "barrier (always a live run)")
    parent.add_argument("--checkpoint-dir", default=".", metavar="PATH",
                        help="directory for --checkpoint-every files "
                             "(default: current directory)")
    parent.add_argument("--checkpoint-halt", type=int, default=None,
                        metavar="K",
                        help="stop the run after writing K checkpoints "
                             "(time-sharded runs; exit 0, no result output)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    common, spec, observe = common_parent(), _spec_parent(), _observe_parent()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DRAM refresh co-design simulator: run one spec, sweep "
                    "a matrix, serve a sweep service, or submit to one.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        parents=[common, spec, observe],
        help="simulate one workload under one or more scenarios",
        description="Simulate one workload mix under one or more refresh "
                    "scenarios (comma-separated).",
    )
    run_p.add_argument("workload", nargs="?", default=None,
                       help="Table 2 mix name (WL-1 .. WL-10); omitted when "
                            "resuming from a checkpoint")
    run_p.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="refresh/OS scenario, or a comma-separated list of them "
             f"(known: {', '.join(sorted(SCENARIOS))}); omitted when "
             "resuming from a checkpoint",
    )
    run_p.add_argument("--json", metavar="PATH", default=None,
                       help="also write the full result(s) as JSON")
    run_p.add_argument("--resume", metavar="CKPT", default=None,
                       help="resume a run from a checkpoint file; the "
                            "workload/scenario positionals must be omitted "
                            "(they are recorded in the checkpoint)")
    # run has no --out and no --warmup-scenario.
    run_p.set_defaults(
        func=_cmd_run, parser=run_p, out=None, warmup_scenario=None
    )

    sweep_p = sub.add_parser(
        "sweep",
        parents=[common, spec],
        help="run a workload x scenario matrix locally",
        description="Run every cell of a workload x scenario matrix through "
                    "the cache + process-pool sweep runner; --out writes one "
                    "<spec-hash>.json entry per cell (the directory format "
                    "`python -m repro.obs diff` compares).",
    )
    sweep_p.add_argument("--workloads", required=True, metavar="A,B,...",
                         help="comma-separated Table 2 mix names")
    sweep_p.add_argument("--scenarios", required=True, metavar="A,B,...",
                         help="comma-separated scenario names "
                              f"(known: {', '.join(sorted(SCENARIOS))})")
    sweep_p.add_argument("--warmup-scenario", default=None, metavar="NAME",
                         help="warm-start every cell from this scenario's "
                              "warm-up prefix (checkpointed once per prefix)")
    sweep_p.add_argument("--out", default=None, metavar="DIR",
                         help="write one <spec-hash>.json spec+result entry "
                              "per cell into DIR")
    sweep_p.add_argument("--json", metavar="PATH", default=None,
                         help="also write all results as one JSON list")
    sweep_p.set_defaults(func=_cmd_sweep, parser=sweep_p)

    serve_p = sub.add_parser(
        "serve",
        parents=[common],
        help="serve the sweep service over TCP",
        description="Start the sweep service: clients submit specs/sweeps "
                    "over a line-oriented JSON protocol; identical concurrent "
                    "submissions collapse onto one simulation "
                    "(see docs/SERVICE.md).  With --jobs 1 jobs run on one "
                    "worker thread; with more, plain jobs run on a pool of "
                    "that many processes.",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=None,
                         help="TCP port (default 7341; 0 picks a free port)")
    serve_p.add_argument("--metrics-port", type=int, default=None,
                         metavar="PORT",
                         help="also serve the Prometheus text exposition "
                              "over HTTP on this port (GET /metrics; "
                              "0 picks a free port)")
    serve_p.add_argument("--log-jsonl", metavar="PATH", default=None,
                         help="append structured JSONL service logs "
                              "(one record per line, with trace context)")
    serve_p.add_argument("--span-jsonl", metavar="PATH", default=None,
                         help="write every closed tracing span as JSON "
                              "lines (reload with repro.telemetry.read_jsonl)")
    serve_p.set_defaults(func=_cmd_serve, parser=serve_p)

    submit_p = sub.add_parser(
        "submit",
        parents=[spec],
        help="submit work to a running sweep service",
        description="Submit one spec or a sweep matrix to a running "
                    "`python -m repro serve` instance and print the results.",
    )
    submit_p.add_argument("workload", nargs="?", default=None,
                          help="Table 2 mix name (or use --workloads)")
    submit_p.add_argument("scenario", nargs="?", default=None,
                          help="scenario name or comma-separated list "
                               "(or use --scenarios)")
    submit_p.add_argument("--workloads", default=None, metavar="A,B,...",
                          help="comma-separated mix names (sweep matrix)")
    submit_p.add_argument("--scenarios", default=None, metavar="A,B,...",
                          help="comma-separated scenario names (sweep matrix)")
    submit_p.add_argument("--warmup-scenario", default=None, metavar="NAME",
                          help="warm-start every cell from this scenario's "
                               "warm-up prefix")
    submit_p.add_argument("--host", default="127.0.0.1",
                          help="service address (default 127.0.0.1)")
    submit_p.add_argument("--port", type=int, default=None,
                          help="service port (default 7341)")
    submit_p.add_argument("--connect-retries", type=int, default=0, metavar="N",
                          help="retry the initial connection N times with "
                               "bounded exponential backoff (0.2s doubling "
                               "to 2s) before giving up")
    submit_p.add_argument("--stream", metavar="PATH", default=None,
                          help="stream live telemetry and write it as "
                               "canonical JSON lines to PATH")
    submit_p.add_argument("--trace-spans", metavar="PATH", default=None,
                          help="trace the submission end-to-end and write "
                               "the per-tier span lanes as Chrome "
                               "trace-event JSON (load in Perfetto)")
    submit_p.add_argument("--monitors", nargs="?", const="collect",
                          choices=["collect", "strict"], default=None,
                          help="run invariant monitors server-side "
                               "(collect: exit 1 on violations; "
                               "strict: exit 2)")
    submit_p.add_argument("--out", default=None, metavar="DIR",
                          help="write one <spec-hash>.json spec+result entry "
                               "per job into DIR")
    submit_p.add_argument("--json", metavar="PATH", default=None,
                          help="also write the result(s) as JSON")
    submit_p.add_argument("--ping", action="store_true",
                          help="print the server hello (schema versions, "
                               "backend) and exit")
    submit_p.add_argument("--status", action="store_true",
                          help="print the server counter snapshot and exit")
    submit_p.add_argument("--metrics", action="store_true",
                          help="print the server metrics frame (counters, "
                               "deterministic/wall histograms, recent spans, "
                               "Prometheus text) as JSON and exit")
    submit_p.add_argument("--shutdown", action="store_true",
                          help="ask the server to stop serving and exit")
    submit_p.set_defaults(func=_cmd_submit, parser=submit_p)

    return parser


def _names(value: str) -> list[str]:
    """The names of a comma-separated list."""
    return [item.strip() for item in value.split(",") if item.strip()]


def _matrix_specs(args, workloads: list[str], scenarios: list[str]):
    """workload x scenario RunSpecs from the shared spec flags: the one
    spec builder of ``run``, ``sweep`` and ``submit``.  Unknown names
    and invalid flags are usage errors."""
    from repro.core.simulator import (
        available_scenarios,
        available_workloads,
        sweep_specs,
    )
    from repro.errors import ConfigError

    parser = args.parser

    for names, kind, known in (
        (workloads, "workload", available_workloads()),
        (scenarios, "scenario", available_scenarios()),
    ):
        if not names:
            parser.error(f"no {kind} given")
        for name in names:
            if name not in known:
                parser.error(f"unknown {kind} {name!r}; known: {list(known)}")
    try:
        return sweep_specs(
            workloads,
            scenarios,
            num_windows=args.windows,
            warmup_windows=args.warmup,
            banks_per_task=args.banks_per_task,
            sample_windows=args.timeseries,
            warmup_scenario=args.warmup_scenario,
            density_gbit=args.density,
            trefw_ps=ms(args.trefw_ms),
            refresh_scale=args.refresh_scale,
            seed=args.seed,
        )
    except ConfigError as exc:
        parser.error(str(exc))


def _resolve(args, specs) -> list:
    """Results of *specs* through the memo, the disk cache and the
    process pool (``run`` and ``sweep``, as :func:`repro.api.sweep`)."""
    from repro.experiments.runner import SweepRunner

    runner = SweepRunner(
        jobs=args.jobs, cache_dir=args.cache_dir, use_cache=not args.no_cache
    )
    return runner.resolve(specs)


def _write_outputs(args, pairs: list, listed: bool = False) -> None:
    """Write ``--out`` and ``--json`` for ``(spec, result)`` *pairs* in
    submission order.  ``--json`` holds one result object, or a list when
    *listed* or when there are several."""
    if args.out:
        from repro.experiments.cache import write_result_entries

        write_result_entries(args.out, pairs)
        print(f"  wrote {len(pairs)} entries to {args.out}")
    if args.json and pairs:
        payload = [result_to_dict(result) for _, result in pairs]
        with open(args.json, "w") as f:
            json.dump(
                payload if listed or len(payload) > 1 else payload[0],
                f,
                indent=2,
            )
        print(f"  wrote {args.json}")


# -- subcommands ---------------------------------------------------------------


def _cmd_run(args) -> int:
    parser = args.parser
    resume = None
    if args.resume is not None:
        if args.workload is not None or args.scenario is not None:
            parser.error(
                "--resume reads workload/scenario from the checkpoint; "
                "omit the positional arguments"
            )
        from repro.core.checkpoint import load_checkpoint

        from repro.errors import ConfigError

        try:
            ckpt_spec, cycle, state = load_checkpoint(args.resume)
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        provenance = f"{ckpt_spec.content_hash()}@{cycle}"
        specs = [ckpt_spec.with_(resume_from=provenance)]
        resume = (cycle, state)
        print(f"resuming {args.resume} (cycle {cycle}, {provenance})")
    elif args.workload is None or args.scenario is None:
        parser.error("workload and scenario are required (or use --resume)")
    else:
        specs = _matrix_specs(args, [args.workload], _names(args.scenario))

    observed = (
        args.trace or args.trace_jsonl or args.metrics_out
        or args.monitors or args.profile
        or args.checkpoint_every is not None or resume is not None
    )
    if observed:
        # Event sinks, monitors, profiles and checkpointing need a live
        # run: execute each spec in-process instead of through the cache.
        from repro.errors import CheckpointError, MonitorError

        pairs = []
        for spec in specs:
            try:
                result = _run_observed(
                    spec, args, multi=len(specs) > 1, resume=resume
                )
            except MonitorError as exc:
                print(
                    f"monitor violation ({spec.scenario.name}): {exc}",
                    file=sys.stderr,
                )
                return 2
            except CheckpointError as exc:
                print(f"cannot resume {args.resume}: {exc}", file=sys.stderr)
                return 1
            if result is not None:
                pairs.append((spec, result))
    else:
        pairs = list(zip(specs, _resolve(args, specs)))

    for _, result in pairs:
        print(result.summary())
        if result.energy is not None:
            print(f"  energy             : {result.energy}")
    _write_outputs(args, pairs)
    if args.monitors and any(r.monitor_violations for _, r in pairs):
        return 1
    return 0


def _cmd_sweep(args) -> int:
    specs = _matrix_specs(args, _names(args.workloads), _names(args.scenarios))
    pairs = list(zip(specs, _resolve(args, specs)))
    for _, result in pairs:
        print(result.summary())
    _write_outputs(args, pairs, listed=True)
    return 0


def _cmd_serve(args) -> int:
    from repro.service import SweepService
    from repro.service.server import serve_forever
    from repro.telemetry.sinks import JsonlSink
    from repro.telemetry.wire import DEFAULT_PORT
    from repro.tracing import StructuredLog

    log = StructuredLog(path=args.log_jsonl) if args.log_jsonl else None
    span_sink = JsonlSink(args.span_jsonl) if args.span_jsonl else None
    service = SweepService(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        log=log,
        span_sink=span_sink,
    )
    port = args.port if args.port is not None else DEFAULT_PORT
    metrics_server = None
    # The port whose bind comes next; None once the service listens.
    binding = args.metrics_port

    def ready(server) -> None:
        nonlocal binding
        binding = None
        exposition = (
            f", metrics on :{metrics_server.server_address[1]}"
            if metrics_server is not None
            else ""
        )
        print(
            f"repro service listening on {server.host}:{server.port} "
            f"(backend={service.backend}, "
            f"caching={'on' if service.cache is not None else 'off'}"
            f"{exposition})",
            flush=True,
        )

    try:
        if args.metrics_port is not None:
            from repro.service.metrics import start_metrics_http

            metrics_server = start_metrics_http(
                service.metrics,
                service.counters,
                info={
                    "backend": service.backend,
                    "caching": str(service.cache is not None).lower(),
                },
                host=args.host,
                port=args.metrics_port,
            )
        binding = port
        serve_forever(service, args.host, port, on_ready=ready)
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        if binding is None:
            raise
        # asyncio rewraps a bind error with the address in its text; the
        # errno's own message reads the same for both servers.
        reason = os.strerror(exc.errno) if (exc.errno or 0) > 0 else exc
        print(f"cannot serve on {args.host}:{binding}: {reason}", file=sys.stderr)
        return 1
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
        service.close()
    return 0


def _cmd_submit(args) -> int:
    parser = args.parser
    from repro.errors import ReproError, ServiceError
    from repro.service.client import ServiceClient
    from repro.telemetry.wire import DEFAULT_PORT

    port = args.port if args.port is not None else DEFAULT_PORT
    utility = args.ping or args.status or args.metrics or args.shutdown
    if not utility:
        if args.workload is not None and args.scenario is not None:
            workloads, scenarios = [args.workload], _names(args.scenario)
        elif args.workloads is not None and args.scenarios is not None:
            workloads, scenarios = _names(args.workloads), _names(args.scenarios)
        else:
            parser.error(
                "give WORKLOAD SCENARIO positionals or --workloads/--scenarios "
                "(or one of --ping/--status/--shutdown)"
            )
        specs = _matrix_specs(args, workloads, scenarios)

    try:
        client = ServiceClient(
            args.host, port, connect_retries=args.connect_retries
        )
    except (OSError, ServiceError) as exc:
        print(
            f"cannot reach repro service at {args.host}:{port}: {exc}",
            file=sys.stderr,
        )
        return 1

    with client:
        if args.ping:
            print(json.dumps(client.ping(), indent=2, sort_keys=True))
            return 0
        if args.status:
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.metrics:
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown()
            print("server shutting down")
            return 0

        stream_file = None
        on_event = None
        if args.stream is not None:
            stream_file = open(args.stream, "w", encoding="utf-8")

            def on_event(event: dict, job) -> None:
                # Canonical encoding: byte-identical to a local JsonlSink.
                json.dump(
                    event, stream_file, sort_keys=True, separators=(",", ":")
                )
                stream_file.write("\n")

        def on_result(job: str, result, source: str) -> None:
            print(f"[{source}] {result.summary()}")

        try:
            outcome = client.sweep(
                specs=specs,
                stream=args.stream is not None,
                monitors=args.monitors,
                on_event=on_event,
                on_result=on_result,
                trace=args.trace_spans is not None,
            )
        except (ServiceError, ReproError) as exc:
            print(f"service error: {exc}", file=sys.stderr)
            return 1
        finally:
            if stream_file is not None:
                stream_file.close()
                print(f"  wrote events {args.stream}")

    if args.trace_spans is not None:
        from repro.telemetry.sinks import ChromeTraceSink

        sink = ChromeTraceSink()
        for span in outcome.spans:
            sink.emit(span)
        sink.write(args.trace_spans)
        print(
            f"  wrote span trace {args.trace_spans} "
            f"({len(outcome.spans)} spans, trace {outcome.trace})"
        )

    by_hash = {spec.content_hash(): spec for spec in specs}
    _write_outputs(args, [
        (by_hash[job], outcome.results[job])
        for job in outcome.jobs
        if job in outcome.results
    ])
    for job, message in outcome.errors.items():
        label = outcome.sources.get(job, "error")
        print(f"job {job[:12]} failed ({label}): {message}", file=sys.stderr)
    if outcome.errors:
        return 2 if any(
            source == "monitor_error" for source in outcome.sources.values()
        ) else 1
    if args.monitors and any(
        r.monitor_violations for r in outcome.results.values()
    ):
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "jobs" in vars(args):  # run, sweep and serve
        args.jobs = resolve_jobs(args.parser, args.jobs)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
