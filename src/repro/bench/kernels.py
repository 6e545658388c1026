"""Deterministic micro-kernels over the simulator's hot paths.

Every kernel builds its own fixture, runs a fixed seeded workload and
returns the number of operations performed.  Operation counts are pure
functions of the kernel arguments — two invocations must agree exactly
(that is what the CI bench job gates on); only wall time may vary.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Callable

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.refresh.all_bank import AllBankRefresh
from repro.dram.refresh.same_bank import SameBankSequential
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming


# -- engine ------------------------------------------------------------------


def engine_event_chain(events: int = 5000) -> int:
    """The canonical engine micro: a self-rescheduling delay-1 chain."""
    engine = Engine()
    counter = [0]

    def tick():
        counter[0] += 1
        if counter[0] < events:
            engine.schedule(1, tick)

    engine.schedule(0, tick)
    engine.run()
    return counter[0]


def engine_far_future_mix(events: int = 5000) -> int:
    """Mixed near/far delays: exercises the bucket + heap spill path."""
    engine = Engine()
    rng = random.Random(11)
    seen = [0]

    def tick():
        seen[0] += 1

    for _ in range(events):
        engine.schedule(rng.choice((1, 2, 3, 500, 20_000)), tick)
    engine.run()
    return seen[0]


# -- DRAM --------------------------------------------------------------------


def _dram_fixture(refresh_scale: int = 1024):
    config = default_system_config(refresh_scale=refresh_scale)
    timing = DramTiming.from_config(config)
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=64)
    return config, timing, org, mapping


def address_decode(decodes: int = 20_000) -> int:
    """Byte-address -> coordinate decode (memoised frame tables)."""
    _, _, _, mapping = _dram_fixture()
    rng = random.Random(7)
    addresses = [
        mapping.frame_offset_to_address(
            rng.randrange(mapping.total_frames), rng.randrange(64) * 64
        )
        for _ in range(512)
    ]
    total = 0
    for i in range(decodes):
        coord = mapping.address_to_coordinate(addresses[i % 512])
        total += coord.bank
    return decodes if total >= 0 else 0


def _request_stream(requests: int = 2000) -> tuple[int, MemoryController]:
    """Body of :func:`controller_request_stream`; returns the controller
    too so :func:`controller_cost_models` can read its dispatch model."""
    _, timing, org, mapping = _dram_fixture()
    rng = random.Random(7)
    addresses = [
        mapping.frame_offset_to_address(
            rng.randrange(mapping.total_frames), rng.randrange(64) * 64
        )
        for _ in range(requests)
    ]
    engine = Engine()
    mc = MemoryController(engine, timing, org, mapping)
    done = []
    for address in addresses:
        mc.enqueue(
            MemoryRequest(
                RequestType.READ,
                address,
                mapping.address_to_coordinate(address),
                on_complete=done.append,
            )
        )
    engine.run_until(50_000_000)
    return len(done), mc


def controller_request_stream(requests: int = 2000) -> int:
    """FR-FCFS service of a seeded random read stream."""
    return _request_stream(requests)[0]


def _drain_storm(requests: int = 2048) -> tuple[int, MemoryController]:
    """Body of :func:`controller_drain_storm`.

    Requests arrive in waves of 60 writes + 4 reads, the next wave
    issued only when the previous one has fully completed.  Each wave
    therefore pushes the pending-write count through the drain high
    watermark (54) and empties back through the low one (32), toggling
    write-drain mode exactly once per wave — the hysteresis branch and
    the drain-priority queue selection stay hot for the whole kernel.
    """
    _, timing, org, mapping = _dram_fixture()
    rng = random.Random(13)
    engine = Engine()
    mc = MemoryController(engine, timing, org, mapping)
    wave_writes = 60
    wave = wave_writes + 4
    state = {"issued": 0, "returned": 0}

    def issue_wave() -> None:
        n = min(wave, requests - state["issued"])
        state["issued"] += n
        for i in range(n):
            address = mapping.frame_offset_to_address(
                rng.randrange(mapping.total_frames), rng.randrange(64) * 64
            )
            rtype = RequestType.WRITE if i < wave_writes else RequestType.READ
            mc.enqueue(
                MemoryRequest(
                    rtype,
                    address,
                    mapping.address_to_coordinate(address),
                    on_complete=complete,
                )
            )

    def complete(request: MemoryRequest) -> None:
        state["returned"] += 1
        if state["returned"] % wave == 0 and state["issued"] < requests:
            issue_wave()

    issue_wave()
    engine.run_until(50_000_000)
    return state["returned"], mc


def controller_drain_storm(requests: int = 2048) -> int:
    """Write-drain hysteresis churn: completion-paced write waves."""
    return _drain_storm(requests)[0]


def _row_hit_locality(requests: int = 2000) -> tuple[int, MemoryController]:
    """Body of :func:`controller_row_hit_locality`.

    Eight consecutive-column reads per randomly chosen row: almost every
    pick is an open-row hit rather than the oldest-request fallback,
    exercising the row-hit path end to end.
    """
    _, timing, org, mapping = _dram_fixture()
    rng = random.Random(29)
    engine = Engine()
    mc = MemoryController(engine, timing, org, mapping)
    done: list = []
    issued = 0
    while issued < requests:
        frame = rng.randrange(mapping.total_frames)
        first_column = rng.randrange(56)
        burst = min(8, requests - issued)
        for i in range(burst):
            address = mapping.frame_offset_to_address(
                frame, (first_column + i) * 64
            )
            mc.enqueue(
                MemoryRequest(
                    RequestType.READ,
                    address,
                    mapping.address_to_coordinate(address),
                    on_complete=done.append,
                )
            )
        issued += burst
    engine.run_until(50_000_000)
    return len(done), mc


def controller_row_hit_locality(requests: int = 2000) -> int:
    """Row-buffer-friendly read bursts: nearly every pick is a row hit."""
    return _row_hit_locality(requests)[0]


#: Controller kernels whose dispatch cost model the bench report exports.
_COST_MODEL_KERNELS: dict[str, Callable[[], tuple[int, MemoryController]]] = {
    "controller_request_stream": _request_stream,
    "controller_drain_storm": _drain_storm,
    "controller_row_hit_locality": _row_hit_locality,
}


def controller_cost_models() -> dict[str, dict]:
    """One extra (untimed) run of each controller kernel, returning its
    :meth:`MemoryController.dispatch_cost_model` counters keyed by kernel
    name.  Every value is a pure function of the kernel arguments, so the
    CI determinism gate can compare them exactly and the trend gate can
    watch the ratios for relative hot-path regressions."""
    models: dict[str, dict] = {}
    for name, impl in _COST_MODEL_KERNELS.items():
        served, mc = impl()
        model = mc.dispatch_cost_model()
        model["completed"] = served
        models[name] = model
    return models


def refresh_schedule_ticks(scenario: str = "all_bank", windows: int = 4) -> int:
    """Refresh commands issued over *windows* retention windows with an
    otherwise idle controller (batched rank wake-ups included)."""
    _, timing, org, mapping = _dram_fixture(refresh_scale=64)
    engine = Engine()
    mc = MemoryController(engine, timing, org, mapping)
    scheduler = {"all_bank": AllBankRefresh, "same_bank": SameBankSequential}[
        scenario
    ]()
    scheduler.attach(mc, engine, timing)
    scheduler.start()
    engine.run_until(timing.trefw * windows)
    return scheduler.stats.commands_issued


# -- CPU ---------------------------------------------------------------------


class _ComputeWorkload:
    """Infinite compute-only access stream (drives the fast-forward)."""

    name = "bench-compute"
    mlp = 1

    def next_access(self, task):
        from repro.workloads.generator import MemAccess

        return MemAccess(100, 50, None)


def core_compute_fast_forward(gaps: int = 20_000) -> int:
    """Compute-gap issue loop: one engine event per folded gap chain."""
    from repro.cpu.core import Core
    from repro.os.task import Task

    _, timing, org, mapping = _dram_fixture()
    engine = Engine()
    mc = MemoryController(engine, timing, org, mapping)
    core = Core(0, engine, mc)
    task = Task("bench", _ComputeWorkload(), task_id=0)
    task.rng = random.Random(7)
    core.run_task(task)
    engine.run_until(gaps * 50)
    core.preempt()
    return task.stats.instructions


# -- OS ----------------------------------------------------------------------


def buddy_churn(frames: int = 4096) -> int:
    """Allocate every frame of a buddy allocator page by page, then free
    them all; returns the free frames afterwards."""
    from repro.os.buddy import BuddyAllocator

    buddy = BuddyAllocator(frames)
    allocated = [buddy.alloc_page() for _ in range(frames)]
    for frame in allocated:
        buddy.free(frame)
    return buddy.free_frames()


def partition_churn(pages: int = 2000) -> int:
    """Allocate one bank-partitioned footprint (soft policy, eight banks)
    and free the task again; returns the pages allocated."""
    from repro.os.page import PhysicalMemory
    from repro.os.partition import PartitioningAllocator, PartitionPolicy
    from repro.os.task import Task

    mapping = AddressMapping(DramOrganization(), total_rows_per_bank=256)
    allocator = PartitioningAllocator(PhysicalMemory(mapping), PartitionPolicy.SOFT)
    task = Task("bench", None, possible_banks=frozenset(range(0, 16, 2)), task_id=0)
    allocated = allocator.alloc_footprint(task, pages)
    allocator.free_task(task)
    return allocated


# -- workload and system build ---------------------------------------------


def _access_stream(draws: int) -> list:
    """Body of :func:`workload_access_stream`: the accesses themselves."""
    from repro.os.task import Task
    from repro.workloads.generator import StatisticalWorkload
    from repro.workloads.mixes import workload_mix

    _, _, _, mapping = _dram_fixture()
    spec = workload_mix("WL-6")[0]
    workload = StatisticalWorkload(spec, mapping)
    task = Task(spec.name, workload, task_id=0)
    task.rng = random.Random(7)
    for frame in range(0, mapping.total_frames, 3):
        task.add_frame(frame, mapping.frame_to_bank_index(frame))
    next_access = workload.next_access
    return [next_access(task) for _ in range(draws)]


def workload_access_stream(draws: int = 20_000) -> int:
    """Per-miss generator: *draws* accesses from one WL-6 task (mcf) on a
    frame list."""
    return len(_access_stream(draws))


def workload_stream_digests() -> dict[str, str]:
    """sha256 of :func:`workload_access_stream`'s accesses, from one extra
    (untimed) run, keyed by kernel name.  The stream is a pure function of
    the seed, so the digest joins the determinism signature: it changes
    if any draw of the per-miss generator does."""
    stream = [list(access) for access in _access_stream(20_000)]
    digest = hashlib.sha256(json.dumps(stream).encode()).hexdigest()
    return {"workload_access_stream": digest}


def system_build() -> int:
    """One cold Figure-10 cell build (WL-6 codesign at 32 Gb), footprint
    allocation included; returns the pages allocated."""
    from repro.core.simulator import build_system_from_spec, make_run_spec

    spec = make_run_spec(
        "WL-6",
        "codesign",
        num_windows=1.0,
        warmup_windows=0.25,
        refresh_scale=1024,
        density_gbit=32,
    )
    system = build_system_from_spec(spec)
    return sum(len(task.frames) for task in system.tasks)


def full_quantum() -> int:
    """A quarter-window WL-6 codesign run at refresh_scale 2048, build
    included: about one scheduling quantum end to end.  Returns the reads
    completed."""
    from repro.core.simulator import build_system

    system = build_system("WL-6", "codesign", refresh_scale=2048)
    return system.run(num_windows=0.25, warmup_windows=0.0).reads_completed


# -- checkpoint --------------------------------------------------------------


def checkpoint_roundtrip(rounds: int = 10, refresh_scale: int = 512) -> int:
    """Snapshot -> JSON -> restore-into-fresh-system trips at a mid-run
    barrier of a WL-6 codesign run.

    Measures the full checkpoint cost a time-sharded or warm-started run
    pays per barrier: state capture, serialization both ways, and a
    system built from the snapshot.  Returns descriptors handled
    (queued-engine entries plus in-flight requests, per round) — a pure
    function of the arguments, so the determinism gate covers the
    snapshot encoder too.
    """
    from repro.core.simulator import build_system_from_spec, make_run_spec

    spec = make_run_spec(
        "WL-6",
        "codesign",
        num_windows=1.0,
        warmup_windows=0.25,
        refresh_scale=refresh_scale,
    )
    system = build_system_from_spec(spec)
    captured: dict = {}

    def sink(cycle, state):
        captured["state"] = state
        return True

    out = system.run(
        num_windows=1.0,
        warmup_windows=0.25,
        checkpoint_every=0.5,
        checkpoint_sink=sink,
    )
    assert out is None
    entries = sum(
        len(bucket) for _, bucket in captured["state"]["engine"]["_buckets"]
    ) + len(captured["state"]["requests"])
    ops = 0
    for _ in range(rounds):
        payload = json.dumps(system.snapshot_state())
        build_system_from_spec(spec, resume_state=json.loads(payload))
        ops += entries
    return ops


# -- service -----------------------------------------------------------------


def _service_spec():
    from repro.core.simulator import make_run_spec

    return make_run_spec(
        "WL-9",
        "per_bank",
        num_windows=0.1,
        warmup_windows=0.02,
        refresh_scale=1024,
    )


def service_roundtrip(submissions: int = 6) -> int:
    """In-process submit loop through the full service resolution path.

    Drives one :class:`~repro.service.server.SweepService` (``jobs=1``,
    so the one run is on its worker thread; tempdir cache) through the
    execute tier and then ``submissions - 1`` memo hits, then reboots a
    fresh service over the same cache directory for one disk-cache hit.
    Both services are closed before the cache is removed.  Returns requests
    served — a pure function of *submissions* — while the wall time
    captures per-request service overhead (key hashing, tier checks,
    metrics observation) rather than simulation work.
    """
    import asyncio
    import contextlib
    import shutil
    import tempfile

    from repro.service.server import SweepService

    spec = _service_spec()

    async def drive(svc, count):
        n = 0
        for _ in range(count):
            await svc.resolve(spec)
            n += 1
        return n

    cache_dir = tempfile.mkdtemp(prefix="bench-service-")
    served = 0
    try:
        with contextlib.closing(SweepService(cache_dir=cache_dir)) as service:
            served += asyncio.run(drive(service, submissions))
        with contextlib.closing(SweepService(cache_dir=cache_dir)) as rebooted:
            served += asyncio.run(drive(rebooted, 1))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return served


def service_tier_histograms(submissions: int = 6) -> dict:
    """One extra (untimed) :func:`service_roundtrip`-shaped run, returning
    the deterministic half of each service's metrics snapshot keyed
    ``first`` / ``rebooted``.

    Tier counts and simulated-cycle histograms are pure functions of the
    arguments (executed=1, memo=submissions-1, cache=1, one cycle bucket
    each); wall-latency histograms are deliberately excluded.  The bench
    report records these outside the determinism signature — per-tier
    latency shape is trend information, not a gate.
    """
    import asyncio
    import contextlib
    import shutil
    import tempfile

    from repro.service.server import SweepService

    spec = _service_spec()

    async def drive(svc, count):
        for _ in range(count):
            await svc.resolve(spec)

    cache_dir = tempfile.mkdtemp(prefix="bench-service-")
    try:
        with contextlib.closing(SweepService(cache_dir=cache_dir)) as service:
            asyncio.run(drive(service, submissions))
        with contextlib.closing(SweepService(cache_dir=cache_dir)) as rebooted:
            asyncio.run(drive(rebooted, 1))
        return {
            "first": service.metrics.deterministic_snapshot(),
            "rebooted": rebooted.metrics.deterministic_snapshot(),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# -- end-to-end --------------------------------------------------------------


def wl6_codesign_end_to_end(refresh_scale: int = 64) -> dict:
    """One full WL-6 codesign run; returns wall time, events and a result
    digest (the quantities the CI determinism gate compares)."""
    from repro.core.simulator import build_system

    start = time.perf_counter()
    system = build_system("WL-6", "codesign", refresh_scale=refresh_scale)
    result = system.run()
    wall = time.perf_counter() - start
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return {
        "name": "wl6_codesign_end_to_end",
        "wall_seconds": round(wall, 4),
        "events_processed": system.engine.events_processed,
        "result_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "reads_completed": result.reads_completed,
    }


# -- harness -----------------------------------------------------------------


@dataclass
class KernelResult:
    name: str
    ops: int
    wall_seconds: float

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ops": self.ops,
            "wall_seconds": round(self.wall_seconds, 6),
            "ops_per_sec": round(self.ops_per_sec),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KernelResult":
        return cls(
            name=data["name"],
            ops=data["ops"],
            wall_seconds=data["wall_seconds"],
        )


#: name -> zero-argument kernel callable returning its operation count.
KERNELS: dict[str, Callable[[], int]] = {
    "engine_event_chain": engine_event_chain,
    "engine_far_future_mix": engine_far_future_mix,
    "address_decode": address_decode,
    "controller_request_stream": controller_request_stream,
    "controller_drain_storm": controller_drain_storm,
    "controller_row_hit_locality": controller_row_hit_locality,
    "refresh_all_bank_ticks": refresh_schedule_ticks,
    "refresh_same_bank_ticks": lambda: refresh_schedule_ticks("same_bank"),
    "core_compute_fast_forward": core_compute_fast_forward,
    "buddy_churn": buddy_churn,
    "partition_churn": partition_churn,
    "workload_access_stream": workload_access_stream,
    "system_build": system_build,
    "full_quantum": full_quantum,
    "checkpoint_roundtrip": checkpoint_roundtrip,
    "service_roundtrip": service_roundtrip,
}


def run_kernel(name: str, repeat: int = 5) -> KernelResult:
    """Best-of-*repeat* timing of one named kernel."""
    fn = KERNELS[name]
    best = None
    ops = 0
    for _ in range(repeat):
        t0 = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return KernelResult(name=name, ops=ops, wall_seconds=best or 0.0)
