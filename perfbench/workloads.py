"""The three benchmark workloads.

Every workload is the same closed-loop session with one caller, over
its own set of runs.  A sweep service (inline backend, so ``jobs=1``)
serves on a thread and one blocking ``ServiceClient`` submits to it:
at most two threads.  The session times three kinds of operation, the
ways a user meets the simulator:

* **cold sweep**: a fresh service over an empty cache executes the
  workload's sweep; every run is simulated and written to the cache.
* **memo submit**: a single-run resubmission to the same service,
  answered from its memo.  Nothing is simulated: spec hashing, result
  serialization and the wire do the work.
* **restart sweep**: a fresh service over the filled cache resubmits
  the sweep, answered from disk.

The session runs in rounds of one sweep followed by memo submits:
cold rounds for the first half of the run, restart rounds for the rest.

The workloads differ in what there is to simulate and to serve:

``wl6_codesign_long``
    One long WL-6 ``codesign`` run: the simulation kernel (engine, DRAM
    with same-bank refresh, cores, refresh-aware scheduler) does nearly
    all the cold work, and memo submits and restarts serve one small
    result.
``fig10_sweep_cold``
    The Figure-10 matrix (10 mixes x 16/24/32 Gb x all-bank / per-bank
    / co-design = 90 runs), submitted as one sweep per density: many
    short runs with a ``System`` build and a cache write each, the
    non-same-bank refresh policies, and 90 results to serve.
``warmstart_sweep``
    WL-6 and WL-1 x 8 scenarios warm-started from a shared ``per_bank``
    warm-up longer than the measured window, so checkpoint writes and
    restores are a visible share of a cold sweep.

Sweeps go in matrix form: the server drops explicit-``specs`` frames
over 64 KiB.  Every function takes the seed (``SystemConfig.seed``), a
:class:`Checker` that counts operations and failures, and an optional
:class:`~spans.Tracer` whose windows mark the timed regions.
:func:`unit` runs one fixed-size session (the traced run and its
untraced reference); :func:`loop` fills the run's length and returns
the end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import calibrate
import env
import stats

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())

#: WL-6 co-design at the scale the end-to-end trajectory has always used.
WL6 = {"refresh_scale": 64, "num_windows": 2.0, "warmup_windows": 0.25}

#: Figure-10 matrix.  One-window runs keep a cold pass near ten seconds;
#: half-window runs made the co-design gain swing by a third between
#: seeds.
FIG10 = {"refresh_scale": 1024, "num_windows": 1.0, "warmup_windows": 0.25}
FIG10_MIXES = tuple(f"WL-{i}" for i in range(1, 11))
FIG10_DENSITIES = (16, 24, 32)
FIG10_SCHEMES = ("all_bank", "per_bank", "codesign")

WARMSTART_MIXES = ("WL-6", "WL-1")
WARMSTART_SCENARIOS = (
    "all_bank", "per_bank", "codesign", "ooo_per_bank",
    "elastic", "pausing", "same_bank_hw_only", "partition_only",
)
#: One measured window after a 1.5-window warm-up: the warm-up stays
#: longer than the window, so checkpoints are a visible share, and the
#: mean IPC over the sweep moves 2.4% between seeds (5.1% with a quarter
#: window).
WARMSTART = {
    "refresh_scale": 1024, "num_windows": 1.0, "warmup_windows": 1.5,
    "warmup_scenario": "per_bank",
}

#: Sizes of one traced unit and minimum sizes of a measured run.  1000
#: submits leave ten samples beyond the p99.
MEMO_SUBMITS = 1000
RESTARTS = 20
COLD_SWEEPS = 2
#: Memo submits after every cold sweep and restart.
MEMO_PER_SWEEP = 50
#: Share of a measured run after which no cold sweep starts (once
#: :data:`COLD_SWEEPS` have run); restarts fill the rest.
COLD_UNTIL = 0.5

#: End-to-end metrics :func:`loop` returns; ``run.py`` adds ``setup_s``
#: and ``peak_rss_mb``.
LOOP_METRICS = ("sim_kips", "hmean_ipc", "submit_p50_ms", "submit_p99_ms",
                "restart_sweep_ms")


class Sweep(NamedTuple):
    """One matrix-form sweep request."""

    workloads: tuple
    scenarios: tuple
    options: dict


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple
    #: The paper's co-design gain at 32 Gb that the sweep reproduces.
    paper_gain_pct: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wl6_codesign_long", (Sweep(("WL-6",), ("codesign",), WL6),)),
        Workload("fig10_sweep_cold", tuple(
            Sweep(FIG10_MIXES, FIG10_SCHEMES, {**FIG10, "density_gbit": density})
            for density in FIG10_DENSITIES
        ), paper_gain_pct=16.2),
        Workload("warmstart_sweep",
                 (Sweep(WARMSTART_MIXES, WARMSTART_SCENARIOS, WARMSTART),)),
    )
}


class CheckFailed(Exception):
    """An output did not match what it must be."""


@dataclass
class Checker:
    """Counts attempted and failed operations; a failure never aborts."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @contextlib.contextmanager
    def operation(self, label: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def sweep_digest(pairs) -> str:
    """Digest of ``(job, canonical result)`` pairs in job order.  A
    one-run sweep's digest is its result's, the WL-6 digest the
    repository has always reported."""
    digests = [(job, hashlib.sha256(text.encode()).hexdigest()) for job, text in pairs]
    if len(digests) == 1:
        return digests[0][1]
    text = "\n".join(f"{job} {digest}" for job, digest in digests)
    return hashlib.sha256(text.encode()).hexdigest()


class Digests:
    """The first digest seen must match its pin (when the seed has one);
    every later digest must equal the first."""

    def __init__(self, workload: str, seed: int, checker: Checker):
        self.expected = PINS[workload].get(str(seed))
        self.checker = checker

    def check(self, digest: str) -> None:
        if self.expected is None:
            self.expected = digest
        self.checker.expect(
            digest == self.expected,
            f"result digest {digest[:12]} != expected {self.expected[:12]}",
        )


def codesign_gain_pct(specs, results) -> float | None:
    """Mean over the mixes at 32 Gb of co-design's hmean-IPC gain over
    all-bank refresh, in percent; None without such pairs."""
    ipc = {
        (spec.workload_name, spec.scenario.name): result.hmean_ipc
        for spec, result in zip(specs, results)
        if spec.config.density_gbit == 32
    }
    mixes = sorted(mix for mix, scheme in ipc
                   if scheme == "codesign" and ipc.get((mix, "all_bank"), 0) > 0)
    if not mixes:
        return None
    gains = [ipc[(mix, "codesign")] / ipc[(mix, "all_bank")] - 1 for mix in mixes]
    return 100.0 * sum(gains) / len(gains)


def _window(tracer):
    return tracer.window() if tracer is not None else contextlib.nullcontext()


def _set_op(tracer, op) -> None:
    if tracer is not None:
        tracer.set_op(op)


# -- the service --------------------------------------------------------------


@dataclass
class Service:
    """One sweep service on its own thread plus one connected client."""

    service: object
    server: object
    thread: object
    client: object

    def stop(self) -> None:
        try:
            self.client.shutdown()
        finally:
            self.client.close()
            self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise CheckFailed("service thread did not stop")

    def counts(self) -> dict:
        counters = self.service.counters()
        store = self.service.checkpoint_store
        return {
            "service.executed": counters["runs_executed"],
            "service.memo": counters["memo_hits"],
            "service.cache": counters["disk_hits"],
            "cache.misses": self.service.cache.misses,
            "checkpoint.store_hits": store.hits,
            "checkpoint.store_misses": store.misses,
        }


def start_service(cache_dir: Path) -> Service:
    from repro.service import ServiceClient, SweepService, serve_in_thread

    service = SweepService(cache_dir=cache_dir)
    server, thread = serve_in_thread(service)
    return Service(service, server, thread, ServiceClient(port=server.port))


def resolve(workload: Workload, seed: int) -> list:
    """The workload's runs as the client resolves them, in job order."""
    from repro import api

    return [
        spec
        for sweep in workload.sweeps
        for spec in api.sweep_specs(list(sweep.workloads), list(sweep.scenarios),
                                    seed=seed, **sweep.options)
    ]


def setup_probe(name: str, seed: int):
    """Everything before the first submission, in a fresh interpreter:
    import, spec resolution, server start and connect.  Returns the
    teardown."""
    resolve(WORKLOADS[name], seed)
    cache_dir = env.fresh_dir(f"{name}-setup-")
    service = start_service(cache_dir)

    def teardown():
        try:
            service.stop()
        finally:
            env.remove(cache_dir)

    return teardown


# -- one session --------------------------------------------------------------


class Session:
    """State shared by the operations of one workload's session."""

    def __init__(self, workload: Workload, seed: int, checker: Checker, tracer):
        self.workload = workload
        self.seed = seed
        self.checker = checker
        self.tracer = tracer
        self.digests = Digests(workload.name, seed, checker)
        self.specs = resolve(workload, seed)
        self.jobs = [spec.content_hash() for spec in self.specs]
        self.cache_dir = None
        self.service = None
        self.executed = None  # job -> canonical executed result
        self.submits = 0  # memo submits attempted
        self.instructions = 0
        self.hmean_ipc = None
        self.gain_pct = None
        self.counts: dict = {}

    def _close(self) -> None:
        if self.service is not None:
            service, self.service = self.service, None
            for key, value in service.counts().items():
                self.counts[key] = self.counts.get(key, 0) + value
            service.stop()

    def _sweep(self, source: str) -> tuple[dict, float]:
        """Submit every sweep of the workload; check that each run was
        answered from *source* and, once a cold sweep has run, that it is
        byte-identical to the executed result.  Returns ``(job ->
        result, seconds)``."""
        client = self.service.client
        outcomes = []
        with _window(self.tracer):
            t0 = time.perf_counter()
            for sweep in self.workload.sweeps:
                outcomes.append(client.sweep(
                    workloads=list(sweep.workloads), scenarios=list(sweep.scenarios),
                    options={**sweep.options, "seed": self.seed},
                ))
            seconds = time.perf_counter() - t0
        jobs, results, sources = [], {}, set()
        for outcome in outcomes:
            self.checker.expect(outcome.ok, f"sweep errors: {outcome.errors}")
            jobs += outcome.jobs
            results.update(outcome.results)
            sources |= set(outcome.sources.values())
        self.checker.expect(jobs == self.jobs, "server and client resolved different runs")
        self.checker.expect(sources == {source}, f"sources {sources}, want {source}")
        if self.executed is not None:
            self.checker.expect(
                {job: _canonical(results[job]) for job in jobs} == self.executed,
                "served results differ from executed",
            )
        return results, seconds

    def cold(self, index: int) -> float:
        """Phase 1: a fresh service over an empty cache runs the sweep."""
        self._close()
        if self.cache_dir is not None:
            env.remove(self.cache_dir)
        self.cache_dir = env.fresh_dir(f"{self.workload.name}-")
        self.service = start_service(self.cache_dir)
        _set_op(self.tracer, f"cold-{index}")
        self.executed = None
        results, seconds = self._sweep("executed")
        canonical = {job: _canonical(results[job]) for job in self.jobs}
        self.digests.check(sweep_digest((job, canonical[job]) for job in self.jobs))
        self.executed = canonical
        ordered = [results[job] for job in self.jobs]
        self.instructions = sum(t.instructions for r in ordered for t in r.tasks)
        self.hmean_ipc = statistics.fmean(r.hmean_ipc for r in ordered)
        self.gain_pct = codesign_gain_pct(self.specs, ordered)
        return seconds

    def memo(self, index: int) -> float:
        """Phase 2: resubmit one run of the sweep to the same service."""
        i = index % len(self.jobs)
        job, spec = self.jobs[i], self.specs[i]
        _set_op(self.tracer, f"memo-{index}")
        with _window(self.tracer):
            t0 = time.perf_counter()
            result, source = self.service.client.submit(spec)
            seconds = time.perf_counter() - t0
        self.checker.expect(source == "memo", f"submit answered from {source}")
        self.checker.expect(
            _canonical(result) == self.executed[job], "memo result differs from executed"
        )
        return seconds

    def restart(self, index: int) -> float:
        """Phase 3: a fresh service over the same cache resubmits the sweep."""
        self._close()
        self.service = start_service(self.cache_dir)
        _set_op(self.tracer, f"restart-{index}")
        return self._sweep("cache")[1]

    def finish(self) -> None:
        try:
            self._close()
        finally:
            if self.cache_dir is not None:
                env.remove(self.cache_dir)


def _op(checker, label, fn, index, clock) -> None:
    with checker.operation(f"{label} {index}"):
        clock.add(fn(index))


def _rounds(session, checker, label, sweep, clocks, minimum, until=None,
            submits=0) -> None:
    """Rounds of one sweep (``session.cold`` or ``session.restart``)
    followed by :data:`MEMO_PER_SWEEP` memo submits: at least *minimum*
    rounds, and until *submits* submits were made, and, with *until*,
    while another round as long as the last would end before it.
    Spread over the whole run, the submits sample the host's slow and
    fast stretches alike; a single stretch of them followed its swings."""
    index = 0
    last = 0.0
    while (index < minimum
           or (session.executed is not None and session.submits < submits)
           or (until is not None and time.perf_counter() + last <= until)):
        t0 = time.perf_counter()
        _op(checker, label, sweep, index, clocks[label])
        if session.executed is not None:
            for _ in range(MEMO_PER_SWEEP):
                _op(checker, "memo submit", session.memo, session.submits,
                    clocks["memo submit"])
                session.submits += 1
        last = time.perf_counter() - t0
        index += 1


def _clocks(sampler) -> dict:
    return {label: calibrate.CalibratedClock(sampler)
            for label in ("cold sweep", "memo submit", "restart sweep")}


def unit(name: str, seed: int, checker: Checker, tracer=None) -> dict:
    """One fixed-size session: a cold sweep and the restarts, each
    followed by memo submits."""
    session = Session(WORKLOADS[name], seed, checker, tracer)
    clocks = _clocks(None)  # the unit's timings come from the tracer
    try:
        _rounds(session, checker, "cold sweep", session.cold, clocks, 1)
        if session.executed is not None:
            _rounds(session, checker, "restart sweep", session.restart, clocks, RESTARTS,
                    submits=MEMO_SUBMITS)
    finally:
        session.finish()
    return {"ops": checker.attempted, "counts": session.counts}


def loop(name: str, seed: int, seconds: float, checker: Checker,
         sampler: calibrate.HostSampler) -> dict:
    """A session filling *seconds*: cold rounds until half of it, then
    restart rounds."""
    session = Session(WORKLOADS[name], seed, checker, None)
    clocks = _clocks(sampler)
    start = time.perf_counter()
    try:
        _rounds(session, checker, "cold sweep", session.cold, clocks, COLD_SWEEPS,
                start + COLD_UNTIL * seconds)
        if session.executed is not None:
            _rounds(session, checker, "restart sweep", session.restart, clocks,
                    RESTARTS, start + seconds, MEMO_SUBMITS)
    finally:
        session.finish()
    cold, memo, restart = (clocks[label].scaled() for label in
                           ("cold sweep", "memo submit", "restart sweep"))
    kinstr = [session.instructions / s / 1e3 for s in cold]
    metrics = {}
    if kinstr:
        metrics["sim_kips"] = (statistics.median(kinstr), "kinstr/s")
        metrics["hmean_ipc"] = (session.hmean_ipc, "IPC")
    if memo:
        metrics["submit_p50_ms"] = (1e3 * statistics.median(memo), "ms")
        p99 = stats.tail_percentile(memo, 99)
        if p99 is not None:
            metrics["submit_p99_ms"] = (1e3 * p99, "ms")
    if restart:
        metrics["restart_sweep_ms"] = (1e3 * statistics.median(restart), "ms")
    raw = [clocks[label].raw for label in ("cold sweep", "memo submit", "restart sweep")]
    notes = [
        f"{len(cold)} cold sweeps of {len(session.jobs)} runs "
        f"({session.instructions} instructions each); sim_kips per sweep, "
        "calibrated: " + ", ".join(f"{k:.0f}" for k in kinstr),
        "  raw: " + ", ".join(f"{session.instructions / s / 1e3:.0f}" for s in raw[0]),
        f"{len(memo)} memo submits (p99 over {len(memo)} samples); "
        f"{len(restart)} restarts served from disk",
        f"  raw: submit_p50_ms {1e3 * statistics.median(raw[1]) if raw[1] else 0:.4f}, "
        f"restart_sweep_ms {1e3 * statistics.median(raw[2]) if raw[2] else 0:.4f} "
        f"(host {sampler.host_factor():.2f}x nominal)",
    ]
    paper = session.workload.paper_gain_pct
    if paper is not None and session.gain_pct is not None:
        notes.append(
            f"codesign_gain_pct {session.gain_pct:.2f}% vs the paper's +{paper}% "
            f"(Figure 10, 32 Gb): error {session.gain_pct - paper:+.2f} points; "
            "the simulator is not validated against hardware"
        )
    return {"metrics": metrics, "notes": notes}
