"""Benchmark entry point.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the workload's end-to-end metrics: set-up time as
the median over several fresh interpreters, then the workload itself,
repeated for ``--seconds`` in this process.  ``--trace 1`` runs one
fixed-size unit of the workload twice, each in a fresh interpreter:
first untraced (the reference), then with every layer traced, and prints
the per-layer ledger.  The last line of standard output is always one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The two ``--probe``/``--unit`` modes are the child processes of the
above and are not meant to be called directly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
#: Speed-sampler period inside a set-up probe, which lasts well under a
#: second.
PROBE_PERIOD_S = 0.01


def _workloads():
    env.use_checkout_repro()
    import workloads

    return workloads


def _child(args: list[str]) -> str:
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    done = subprocess.run(
        cmd, cwd=env.ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child {' '.join(args)} exited {done.returncode}")
    return done.stdout


# -- child modes --------------------------------------------------------------------


def probe(name: str, seed: int) -> None:
    """Set the workload up in this fresh interpreter and print the clock
    reading at which the first event or submission would follow, with
    the host speed sampled meanwhile."""
    import calibrate

    with calibrate.HostSampler(period=PROBE_PERIOD_S) as sampler:
        teardown = _workloads().setup_probe(name, seed)
        ready = time.perf_counter()
    host = sampler.host_seconds(0.0, ready)
    teardown()
    print(json.dumps({"ready": ready, "host_s": host}))


def unit(name: str, seed: int, full: bool, import_s: float) -> None:
    """Run one unit of the workload, untraced or traced, and print its
    summary as JSON."""
    import spans

    workloads = _workloads()

    checker = workloads.Checker()
    tracer = spans.Tracer(full)
    tracer.install()
    try:
        out = workloads.unit(name, seed, checker, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["counts"].update(out["counts"])
    summary.update(
        import_s=import_s, ops=out["ops"], attempted=checker.attempted,
        failed=checker.failed, errors=checker.errors,
    )
    if full:
        env.TRACES.mkdir(parents=True, exist_ok=True)
        path = env.TRACES / f"{name}-seed{seed}.json"
        path.write_text(json.dumps(tracer.chrome_trace()))
        summary["trace_file"] = str(path.relative_to(env.ROOT))
    print(json.dumps(summary))


# -- measured runs ------------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: int) -> dict:
    import calibrate

    # One CPU for every thread of the run, so the speed sampler (which
    # runs on the main thread) times the CPU the server thread works on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = _workloads()
    checker = workloads.Checker()
    raw, samples = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = json.loads(_child(["--workload", name, "--seed", str(seed), "--probe"])
                           .splitlines()[-1])
        raw.append(probe["ready"] - start)
        samples.append(raw[-1] * calibrate.NOMINAL_S / probe["host_s"])
    with calibrate.HostSampler() as sampler:
        out = workloads.loop(name, seed, seconds, checker, sampler)
    setup_s = statistics.median(samples)
    metrics = {"setup_s": _metric(setup_s, "s")}
    for key, (value, unit) in out["metrics"].items():
        metrics[key] = _metric(value, unit)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = _metric(peak_mb, "MB")
    print(f"{name} seed={seed}: setup_s median of {len(samples)} fresh interpreters, "
          "calibrated: " + ", ".join(f"{s:.3f}" for s in samples)
          + "; raw: " + ", ".join(f"{s:.3f}" for s in raw))
    for note in out["notes"]:
        print(f"  {note}")
    for key, metric in metrics.items():
        print(f"  {key:<20} {metric['value']:>14.4f} {metric['unit']}")
    missing = set(declared_units("end_to_end")) - set(metrics)
    for line in checker.errors:
        print(f"  FAILED {line}", file=sys.stderr)
    return {
        "correct": checker.failed == 0 and not missing,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def traced(name: str, seed: int) -> dict:
    import spans

    base = ["--workload", name, "--seed", str(seed), "--unit"]
    reference = json.loads(_child(base + ["counts"]).splitlines()[-1])
    trace = json.loads(_child(base + ["full"]).splitlines()[-1])
    values, table = spans.ledger(reference, trace, trace["ops"])
    units = declared_units("per_layer")
    # Counts are pure functions of the seed: the traced run must see
    # exactly what the untraced run saw, and the wrappers must agree with
    # the simulator's and service's own counters.  The comparison is one
    # more operation; any mismatch fails it.
    mismatches = []
    for key in sorted(set(reference["counts"]) & set(trace["counts"])):
        if reference["counts"][key] != trace["counts"][key]:
            mismatches.append(f"count {key}: untraced {reference['counts'][key]} "
                              f"!= traced {trace['counts'][key]}")
    for key, value in trace["counts"].items():
        if key in values and values[key] != value:
            mismatches.append(f"count {key}: spans {values[key]} != counters {value}")
    profiled = sum(v for k, v in trace["counts"].items()
                   if k.startswith("profile.") and k.endswith(".events"))
    if profiled != trace["counts"].get("engine.events", 0):
        mismatches.append(f"profiler saw {profiled} events, engine counted "
                          f"{trace['counts'].get('engine.events', 0)}")
    print(f"{name} seed={seed}: traced unit, {trace['ops']} operations; "
          f"Chrome trace in {trace['trace_file']}")
    for line in table:
        print(line)
    for problem in reference["errors"] + trace["errors"] + mismatches:
        print(f"  FAILED {problem}", file=sys.stderr)
    failed = reference["failed"] + trace["failed"] + (1 if mismatches else 0)
    return {
        "correct": failed == 0,
        "attempted": reference["attempted"] + trace["attempted"] + 1,
        "failed": failed,
        "metrics": {key: _metric(value, units[key]) for key, value in values.items()},
    }


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in declared[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--unit", choices=("counts", "full"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    t0 = time.perf_counter()
    try:
        workloads = _workloads()
    except env.MissingSimulator as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    if args.unit:
        unit(args.workload, args.seed, args.unit == "full", time.perf_counter() - t0)
        return 0
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
