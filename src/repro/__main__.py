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

    python -m repro serve --backend thread --port 7341   # sweep service
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
import sys
from pathlib import Path

import argparse

from repro import available_scenarios, available_workloads
from repro.core.simulator import build_system_from_spec, make_run_spec, sweep_specs
from repro.telemetry import ChromeTraceSink, JsonlSink, Telemetry
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


def _checkpoint_sink(spec, name: str, args, multi: bool):
    """A ``system.run`` checkpoint sink writing files under
    ``--checkpoint-dir``, halting after ``--checkpoint-halt`` writes."""
    from repro.core.checkpoint import save_checkpoint

    directory = Path(args.checkpoint_dir)
    written: list[Path] = []

    def sink(cycle: int, state: dict) -> bool:
        path = directory / _suffixed(
            f"ckpt-{cycle}.json", name, multi
        )
        save_checkpoint(path, spec, cycle, state)
        written.append(path)
        print(f"  wrote checkpoint {path}")
        return args.checkpoint_halt is not None and (
            len(written) >= args.checkpoint_halt
        )

    return sink


def _run_observed(spec, name: str, args, multi: bool, resume=None):
    """Execute one spec live with the requested sinks/monitors attached.

    ``resume = (cycle, state)`` continues from a checkpoint; sinks and
    monitors then attach *after* system construction so the resumed
    event stream carries no duplicate construction-time events and
    concatenates cleanly with the pre-checkpoint shard's stream.
    Returns ``None`` when a ``--checkpoint-halt`` barrier stopped the
    run before completion.
    """
    telemetry = Telemetry()
    chrome = jsonl = suite = profiler = None

    def attach_sinks():
        nonlocal chrome, jsonl, suite
        if args.trace:
            chrome = telemetry.subscribe(ChromeTraceSink())
        if args.trace_jsonl:
            jsonl = telemetry.subscribe(
                JsonlSink(_suffixed(args.trace_jsonl, name, multi))
            )
        if args.monitors:
            from repro.obs.monitors import MonitorSuite

            suite = MonitorSuite(
                strict=args.monitors == "strict"
            ).attach(telemetry)

    if resume is None:
        # Attach before system construction: page allocations are
        # emitted while the System is being built, and the suite
        # buffers them until bind().
        attach_sinks()
    try:
        system = build_system_from_spec(spec, telemetry=telemetry)
        if resume is not None:
            attach_sinks()
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
            sink = _checkpoint_sink(spec, name, args, multi)
        result = system.run(
            num_windows=spec.num_windows,
            warmup_windows=spec.warmup_windows,
            sample_windows=spec.sample_windows,
            checkpoint_every=args.checkpoint_every,
            checkpoint_sink=sink,
            resume_state=resume[1] if resume is not None else None,
        )
    finally:
        # Mid-run exceptions (including strict-mode MonitorError) must
        # still flush file sinks: complete JSONL lines beat a lost file.
        telemetry.close()
    if result is None:
        print(f"  halted at checkpoint (cycle {system.engine.now})")
        if chrome is not None:
            out = _suffixed(args.trace, name, multi)
            chrome.write(out)
            print(f"  wrote trace {out}")
        if jsonl is not None:
            print(f"  wrote events {jsonl.path} ({jsonl.written} lines)")
        return None
    if suite is not None:
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
    if profiler is not None:
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
        print(f"  wrote trace {out} ({len(chrome.trace()['traceEvents'])} events)")
    if jsonl is not None:
        print(f"  wrote events {jsonl.path} ({jsonl.written} lines)")
    if args.metrics_out:
        out = _suffixed(args.metrics_out, name, multi)
        system.metrics().write(out)
        print(f"  wrote metrics {out}")
    return result


# -- argument plumbing ---------------------------------------------------------


def _common_parent() -> argparse.ArgumentParser:
    """Execution flags shared by every subcommand that runs or serves."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=None, metavar="N",
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
    common, spec, observe = _common_parent(), _spec_parent(), _observe_parent()
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
             f"(known: {', '.join(available_scenarios())}); omitted when "
             "resuming from a checkpoint",
    )
    run_p.add_argument("--json", metavar="PATH", default=None,
                       help="also write the full result(s) as JSON")
    run_p.add_argument("--resume", metavar="CKPT", default=None,
                       help="resume a run from a checkpoint file; the "
                            "workload/scenario positionals must be omitted "
                            "(they are recorded in the checkpoint)")
    run_p.set_defaults(func=_cmd_run, parser=run_p)

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
                              f"(known: {', '.join(available_scenarios())})")
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
                    "(see docs/SERVICE.md).",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=None,
                         help="TCP port (default 7341; 0 picks a free port)")
    serve_p.add_argument("--backend", default="thread",
                         choices=["inline", "thread", "process"],
                         help="where simulations execute (default: thread)")
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


def _split_names(parser, value: str, kind: str, known) -> list[str]:
    names = [item.strip() for item in value.split(",") if item.strip()]
    if not names:
        parser.error(f"no {kind} given")
    for name in names:
        if name not in known:
            parser.error(f"unknown {kind} {name!r}; known: {list(known)}")
    return names


def _matrix_specs(args, parser, workloads: list[str], scenarios: list[str]):
    """workload x scenario RunSpecs from the shared spec flags."""
    from repro.errors import ConfigError

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
        scenarios = [ckpt_spec.scenario.name]
        resume = (cycle, state)
        print(f"resuming {args.resume} (cycle {cycle}, {provenance})")
    else:
        if args.workload is None or args.scenario is None:
            parser.error("workload and scenario are required (or use --resume)")
        if args.workload not in available_workloads():
            parser.error(
                f"unknown workload {args.workload!r}; "
                f"known: {available_workloads()}"
            )
        scenarios = _split_names(
            parser, args.scenario, "scenario", available_scenarios()
        )

        specs = [
            make_run_spec(
                args.workload,
                name,
                num_windows=args.windows,
                warmup_windows=args.warmup,
                banks_per_task=args.banks_per_task,
                sample_windows=args.timeseries,
                density_gbit=args.density,
                trefw_ps=ms(args.trefw_ms),
                refresh_scale=args.refresh_scale,
                seed=args.seed,
            )
            for name in scenarios
        ]

    observed = (
        args.trace or args.trace_jsonl or args.metrics_out
        or args.monitors or args.profile
        or args.checkpoint_every is not None or resume is not None
    )
    results = []
    if observed:
        # Event sinks, monitors, profiles and checkpointing need a live
        # run: execute each spec in-process instead of through the cache.
        from repro.errors import MonitorError

        for spec, name in zip(specs, scenarios):
            try:
                result = _run_observed(
                    spec, name, args, multi=len(specs) > 1, resume=resume
                )
            except MonitorError as exc:
                print(f"monitor violation ({name}): {exc}", file=sys.stderr)
                return 2
            if result is not None:
                results.append(result)
    else:
        # Resolve through the sweep runner: disk cache + parallel fan-out.
        from repro.experiments.runner import SweepRunner

        runner = SweepRunner(
            jobs=args.jobs, cache_dir=args.cache_dir, use_cache=not args.no_cache
        )
        if len(specs) > 1:
            runner.prefetch(specs)
        results = [runner.run_spec(spec) for spec in specs]

    for result in results:
        print(result.summary())
        if result.energy is not None:
            print(f"  energy             : {result.energy}")
    if args.json and results:
        payload = (
            result_to_dict(results[0])
            if len(results) == 1
            else [result_to_dict(r) for r in results]
        )
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"  wrote {args.json}")
    if args.monitors and any(r.monitor_violations for r in results):
        return 1
    return 0


def _cmd_sweep(args) -> int:
    parser = args.parser
    workloads = _split_names(
        parser, args.workloads, "workload", available_workloads()
    )
    scenarios = _split_names(
        parser, args.scenarios, "scenario", available_scenarios()
    )
    specs = _matrix_specs(args, parser, workloads, scenarios)

    from repro.experiments.runner import SweepRunner

    runner = SweepRunner(
        jobs=args.jobs, cache_dir=args.cache_dir, use_cache=not args.no_cache
    )
    runner.prefetch(specs)
    results = [runner.run_spec(spec) for spec in specs]
    for result in results:
        print(result.summary())
    if args.out:
        from repro.experiments.cache import write_result_entry

        for spec, result in zip(specs, results):
            write_result_entry(args.out, spec, result)
        print(f"  wrote {len(specs)} entries to {args.out}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump([result_to_dict(r) for r in results], f, indent=2)
        print(f"  wrote {args.json}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import SweepService, make_backend
    from repro.service.server import DEFAULT_PORT, serve_forever
    from repro.tracing import StructuredLog

    backend = make_backend(args.backend, jobs=args.jobs)
    log = StructuredLog(path=args.log_jsonl) if args.log_jsonl else None
    span_sink = JsonlSink(args.span_jsonl) if args.span_jsonl else None
    service = SweepService(
        backend=backend,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        log=log,
        span_sink=span_sink,
    )
    metrics_server = None
    if args.metrics_port is not None:
        from repro.service.metrics import start_metrics_http

        metrics_server = start_metrics_http(
            service.metrics,
            service.counters,
            info={
                "backend": backend.name,
                "caching": str(service.cache is not None).lower(),
            },
            host=args.host,
            port=args.metrics_port,
        )

    def ready(server) -> None:
        exposition = (
            f", metrics on :{metrics_server.server_address[1]}"
            if metrics_server is not None
            else ""
        )
        print(
            f"repro service listening on {server.host}:{server.port} "
            f"(backend={backend.name}, "
            f"caching={'on' if service.cache is not None else 'off'}"
            f"{exposition})",
            flush=True,
        )

    port = args.port if args.port is not None else DEFAULT_PORT
    try:
        serve_forever(service, args.host, port, on_ready=ready)
    except KeyboardInterrupt:
        pass
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
        backend.close()
    return 0


def _cmd_submit(args) -> int:
    parser = args.parser
    from repro.errors import ReproError, ServiceError
    from repro.service.client import ServiceClient
    from repro.service.server import DEFAULT_PORT

    port = args.port if args.port is not None else DEFAULT_PORT
    utility = args.ping or args.status or args.metrics or args.shutdown
    if not utility:
        if args.workload is not None and args.scenario is not None:
            workloads = [args.workload]
            scenarios = _split_names(
                parser, args.scenario, "scenario", available_scenarios()
            )
            if args.workload not in available_workloads():
                parser.error(
                    f"unknown workload {args.workload!r}; "
                    f"known: {available_workloads()}"
                )
        elif args.workloads is not None and args.scenarios is not None:
            workloads = _split_names(
                parser, args.workloads, "workload", available_workloads()
            )
            scenarios = _split_names(
                parser, args.scenarios, "scenario", available_scenarios()
            )
        else:
            parser.error(
                "give WORKLOAD SCENARIO positionals or --workloads/--scenarios "
                "(or one of --ping/--status/--shutdown)"
            )
        specs = _matrix_specs(args, parser, workloads, scenarios)

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
        sink = ChromeTraceSink()
        for span in outcome.spans:
            sink.emit(span)
        sink.write(args.trace_spans)
        print(
            f"  wrote span trace {args.trace_spans} "
            f"({len(outcome.spans)} spans, trace {outcome.trace})"
        )

    by_hash = {spec.content_hash(): spec for spec in specs}
    if args.out:
        from repro.experiments.cache import write_result_entry

        for job, result in outcome.results.items():
            write_result_entry(args.out, by_hash[job], result)
        print(f"  wrote {len(outcome.results)} entries to {args.out}")
    if args.json and outcome.results:
        ordered = outcome.in_order()
        payload = (
            result_to_dict(ordered[0])
            if len(ordered) == 1
            else [result_to_dict(r) for r in ordered]
        )
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"  wrote {args.json}")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
