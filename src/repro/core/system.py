"""Full-system assembly: cores + caches + controller + OS + workloads.

:class:`System` builds every component from a :class:`SystemConfig` and a
scenario description, allocates task footprints through the configured
allocator (or, given a snapshot, restores the machine it describes), and
runs the simulation for a number of (scaled) retention windows,
returning a :class:`~repro.core.results.RunResult`.
"""

from __future__ import annotations

import random

from repro.config.scenarios import (  # the last two re-exported at this path
    PartitionPolicy,
    Scenario,
    SCENARIOS as SCENARIOS,
    scenario as scenario,
)
from repro.config.system_configs import SystemConfig
from repro.core.engine import Engine
from repro.core.results import RunResult, TaskResult
from repro.core.state import (
    BOOL,
    COMPONENT,
    COMPONENTS,
    INT,
    INTS,
    OBJECT,
    OPT_INT,
    REQUEST,
    STRING,
    TASK,
    Codec,
    at,
    field,
    listof,
    member,
    optional,
    seq,
)
from repro.cpu.core import ACCESS, Core
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.refresh import make_scheduler
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming
from repro.errors import CheckpointError, ConfigError, SimulationError
from repro.os.codesign import assign_bank_vectors
from repro.os.page import PhysicalMemory
from repro.os.partition import PartitioningAllocator
from repro.os.refresh_aware import RefreshAwareScheduler
from repro.os.scheduler import CfsScheduler
from repro.os.task import Task
from repro.telemetry.events import SchedulerPickEvent
from repro.telemetry.hub import Telemetry
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.generator import StatisticalWorkload


def _no_arg(data, refs=None, current=None):
    if data is not None:
        raise CheckpointError(f"expected null, got {type(data).__name__}")


def _int_tuple(data, refs=None, current=None):
    return tuple(INTS.decode(data))


#: An engine entry: ``[owner key, method name, argument]``.
_ENTRY = seq(STRING, STRING, Codec(None, lambda data, refs=None, current=None: data))
_NO_ARG = Codec(lambda arg: arg, _no_arg)
_CONTROLLER_ARGS = {"_complete": REQUEST, "_pick_many": INTS}
_OWNER_ARGS = {
    "refresh": optional(Codec(list, _int_tuple)),
    "core": seq(INT, ACCESS),
}
_REQUEST_CTX = seq(INT, TASK, OPT_INT)
_RTYPE = member(RequestType, by="value")


def _arg_codec(owner_key: str, name: str) -> Codec:
    """The codec of an engine entry's argument, by owner and method."""
    if owner_key == "controller":
        return _CONTROLLER_ARGS.get(name, INT)
    return _OWNER_ARGS.get(owner_key.split(":")[0], _NO_ARG)


def _method(owner, name: str):
    """*owner*'s bound method *name*, for a decoded engine entry."""
    fn = getattr(owner, name, None)
    if getattr(fn, "__self__", None) is not owner:
        raise CheckpointError(f"{type(owner).__name__} has no method {name!r}")
    return fn


class System:
    """One fully wired simulated machine.

    With ``resume_state`` (a :meth:`snapshot_state` payload taken on an
    identically configured system) the machine is built from the
    snapshot: every component is constructed, task footprints are not
    allocated (the snapshot carries memory, allocator and page tables),
    and the state is restored before the constructor returns, so
    :meth:`run` continues it.  The payload is only read, never changed:
    one snapshot can seed any number of systems.
    """

    # Left out of the hand-written checkpoint composite below.
    DERIVED = ("_started", "_restored")

    def __init__(
        self,
        config: SystemConfig,
        specs: list[BenchmarkSpec],
        scenario: Scenario,
        workload_name: str = "custom",
        banks_per_task: int | None = None,
        telemetry: Telemetry | None = None,
        resume_state: dict | None = None,
    ):
        config.validate()
        if not specs:
            raise ConfigError("at least one task is required")
        self.config = config
        self.scenario = scenario
        self.workload_name = workload_name
        self.telemetry = telemetry if telemetry is not None else Telemetry()

        self.engine = Engine()
        self.telemetry.bind_clock(self.engine)
        self.timing = DramTiming.from_config(config)

        self.mapping = AddressMapping(
            config.organization,
            config.rows_per_bank_sim,
            layout=config.address_layout,
        )
        self.controller = MemoryController(
            self.engine,
            self.timing,
            config.organization,
            self.mapping,
            write_drain_low=config.write_drain_low,
            write_drain_high=config.write_drain_high,
            row_policy=config.row_policy,
            telemetry=self.telemetry,
        )
        self.refresh_scheduler = make_scheduler(scenario.refresh_policy)
        self.refresh_scheduler.attach(
            self.controller, self.engine, self.timing, telemetry=self.telemetry
        )

        self.memory = PhysicalMemory(self.mapping)
        self.allocator = PartitioningAllocator(
            self.memory, scenario.partition, telemetry=self.telemetry
        )

        self.cores = [
            Core(i, self.engine, self.controller, rob_entries=config.cores.rob_entries)
            for i in range(config.cores.num_cores)
        ]

        self.tasks = self._build_tasks(specs, banks_per_task)
        self._allocate_footprints(allocate=resume_state is None)

        quantum = self._quantum_cycles()
        if scenario.refresh_aware:
            self.scheduler = RefreshAwareScheduler(
                self.engine,
                self.cores,
                quantum,
                self.refresh_scheduler,
                eta_thresh=config.os.eta_thresh,
                best_effort=scenario.best_effort,
            )
        else:
            self.scheduler = CfsScheduler(self.engine, self.cores, quantum)
        for i, task in enumerate(self.tasks):
            self.scheduler.add_task(task, cpu=i % len(self.cores))
        self.scheduler.on_pick = self._emit_pick

        self.load_balancer = None
        if config.os.load_balance:
            from repro.os.loadbalance import LoadBalancer

            self.load_balancer = LoadBalancer(
                self.scheduler,
                interval_quanta=config.os.load_balance_interval_quanta,
                bank_aware=scenario.refresh_aware,
                total_banks=config.organization.total_banks,
                telemetry=self.telemetry,
            )

        self._started = False
        self._restored = False
        # Run progress (set when the measured interval begins, or restored
        # from a checkpoint) and the live sampler, if any.
        self._measure_start: int | None = None
        self._run_end: int | None = None
        self._sampler = None
        self._sampler_windows: int | None = None
        if resume_state is not None:
            self.restore_state(resume_state)

    # -- construction helpers ---------------------------------------------------

    def _quantum_cycles(self) -> int:
        from repro.units import ClockDomain

        cpu = ClockDomain(self.config.cores.freq_mhz)
        return max(1, cpu.cycles(self.config.quantum_ps))

    def _build_tasks(
        self, specs: list[BenchmarkSpec], banks_per_task: int | None
    ) -> list[Task]:
        vectors: list = [None] * len(specs)
        if self.scenario.partition is not PartitionPolicy.NONE:
            vectors = assign_bank_vectors(
                len(specs),
                len(self.cores),
                self.config.organization,
                banks_per_task=banks_per_task,
            )
        tasks = []
        for i, spec in enumerate(specs):
            workload = StatisticalWorkload(
                spec, self.mapping, line_bytes=self.config.organization.cacheline_bytes
            )
            task = Task(
                name=spec.name,
                workload=workload,
                possible_banks=vectors[i],
                task_id=i,
            )
            task.rng = random.Random(self.config.seed * 100_003 + i)
            tasks.append(task)
        return tasks

    def _allocate_footprints(self, allocate: bool = True) -> None:
        """Give each task its footprint: page frames up front, or a
        demand-paged address space (prefaulted when configured).  With
        ``allocate=False`` only the address spaces are created, empty,
        for a restore to fill."""
        from repro.os.vm import VirtualMemory

        page_bytes = self.mapping.page_bytes
        os_config = self.config.os
        for task in self.tasks:
            footprint = self.config.scale_footprint(
                task.workload.spec.footprint_bytes
            )
            pages = max(1, footprint // page_bytes)
            if os_config.demand_paging:
                vm = VirtualMemory(
                    task,
                    self.allocator,
                    footprint_pages=pages,
                    minor_fault_cycles=os_config.minor_fault_cycles,
                    major_fault_cycles=os_config.major_fault_cycles,
                )
                if allocate and os_config.prefault:
                    vm.prefault_all()
            elif allocate:
                self.allocator.alloc_footprint(task, pages)

    # -- telemetry ---------------------------------------------------------------

    def _emit_pick(self, time: int, core_id: int, task) -> None:
        """The scheduler's ``on_pick`` callback: enriches the raw
        dispatch with the refresh schedule's view (which bank will be
        refresh-busy mid-quantum, and whether the task has data there)."""
        if not self.telemetry.enabled:
            return
        probe = time + self.scheduler.quantum_cycles // 2
        bank = self.refresh_scheduler.stretch_bank_at(probe)
        conflict = (
            task is not None and bank is not None and task.has_data_in_bank(bank)
        )
        self.telemetry.emit(
            SchedulerPickEvent(
                time=time,
                core_id=core_id,
                task_id=task.task_id if task is not None else None,
                task_name=task.name if task is not None else "(idle)",
                refresh_bank=bank,
                conflict=conflict,
                quantum_cycles=self.scheduler.quantum_cycles,
                fallback=getattr(self.scheduler, "last_pick_fallback", False),
            )
        )

    def metrics(self) -> MetricsRegistry:
        """A :class:`MetricsRegistry` over every live stats object.

        Snapshots are taken at query time, so one registry serves both
        mid-run peeks and end-of-run export (``--metrics-out``).
        """
        registry = MetricsRegistry()
        registry.register("dram.controller", self.controller.stats)
        registry.register("dram.refresh", self.refresh_scheduler.stats)
        for bank in self.controller.banks:
            registry.register(
                f"dram.ch{bank.channel}.rk{bank.rank_id}.bank{bank.bank_id}",
                bank.stats,
            )
        for task in self.tasks:
            registry.register(f"os.task.{task.task_id}", task.stats)
            if task.vm is not None:
                registry.register(f"os.task.{task.task_id}.vm", task.vm.stats)
        allocator = self.allocator
        registry.register(
            "os.alloc",
            lambda: {
                "cache_hits": allocator.cache_hits,
                "cache_fills": allocator.cache_fills,
                "spills": allocator.spills,
                "free_frames": allocator.free_frames(),
            },
        )
        scheduler = self.scheduler
        registry.register(
            "os.sched.context_switches", lambda: scheduler.context_switches
        )
        if isinstance(scheduler, RefreshAwareScheduler):
            registry.register(
                "os.sched.clean_picks", lambda: scheduler.clean_picks
            )
            registry.register(
                "os.sched.fallback_picks", lambda: scheduler.fallback_picks
            )
        if self.load_balancer is not None:
            balancer = self.load_balancer
            registry.register("os.balance.migrations", lambda: balancer.migrations)
        return registry

    # -- execution -------------------------------------------------------------------

    @property
    def window_cycles(self) -> int:
        """CPU cycles in one (scaled) retention window."""
        return self.timing.trefw

    def run(
        self,
        num_windows: float = 2.0,
        warmup_windows: float = 0.25,
        sample_windows: int | None = None,
        checkpoint_every: float | None = None,
        checkpoint_sink=None,
        checkpoint_measure_start: bool = False,
    ) -> RunResult | None:
        """Simulate ``warmup + num_windows`` retention windows; statistics
        cover only the measured portion.  With ``sample_windows = N`` a
        timeseries with N samples per retention window is attached to the
        result.

        Checkpointing: with ``checkpoint_every = K`` the run pauses at
        every absolute barrier ``k * K`` retention windows and calls
        ``checkpoint_sink(cycle, state)`` with a :meth:`snapshot_state`
        payload; a truthy return halts the run, which then returns
        ``None``.  ``checkpoint_measure_start = True`` additionally
        offers a checkpoint at the measurement boundary itself (the
        warm-start capture point).  A system built from a snapshot
        (``resume_state``) continues to the end recorded in it;
        ``num_windows``/``warmup_windows`` are only consulted when the
        snapshot predates the measured interval.
        """
        if self._started:
            raise ConfigError("a System can only be run once")
        self._started = True
        if not self._restored:
            self.refresh_scheduler.start()
            self.scheduler.start()
            if self.load_balancer is not None:
                self.load_balancer.start()

        if self._measure_start is None:
            warmup_end = int(self.window_cycles * warmup_windows)
            if warmup_end > 0:
                if self._advance(warmup_end, checkpoint_every, checkpoint_sink):
                    return None
                self._reset_stats()
            self._measure_start = self.engine.now  # repro: noqa[RPR011] captured as run.measure_start in the snapshot composite
            self._run_end = self._measure_start + int(  # repro: noqa[RPR011] captured as run.end in the snapshot composite
                self.window_cycles * num_windows
            )
            if sample_windows is not None:
                from repro.telemetry.timeseries import TimeseriesSampler

                self._sampler = TimeseriesSampler(self, sample_windows)  # repro: noqa[RPR011] captured as run.sampler in the snapshot composite
                self._sampler_windows = sample_windows  # repro: noqa[RPR011] captured as run.sampler.samples_per_window in the snapshot composite
                self._sampler.start(self._measure_start, self._run_end)
            if checkpoint_sink is not None and checkpoint_measure_start:
                if checkpoint_sink(self.engine.now, self.snapshot_state()):
                    return None
        if self._advance(self._run_end, checkpoint_every, checkpoint_sink):
            return None
        result = self._collect(self._measure_start)
        if self._sampler is not None:
            result.timeseries = self._sampler.result()
        return result

    def _advance(
        self, target: int, every: float | None, sink
    ) -> bool:
        """Run to *target*, pausing at each barrier ``k * every`` retention
        windows strictly inside ``(now, target)`` to offer *sink* a
        snapshot.  Returns True when the sink asked to halt."""
        if every is not None and sink is not None:
            step = int(self.window_cycles * every)
            if step > 0:
                barrier = (self.engine.now // step + 1) * step
                while barrier < target:
                    self.engine.run_until(barrier)
                    if sink(barrier, self.snapshot_state()):
                        return True
                    barrier += step
        self.engine.run_until(target)
        return False

    def _reset_stats(self) -> None:
        from repro.dram.controller import ControllerStats
        from repro.dram.refresh.base import RefreshStats
        from repro.os.task import TaskStats

        from repro.dram.bank import BankStats

        now = self.engine.now
        # Credit fast-forwarded compute gaps that elapsed before the
        # warmup boundary, so zeroing below drops exactly what the
        # one-event-per-gap schedule would have credited by now.
        for core in self.cores:
            core.sync_accounting(now)
        self.controller.stats = ControllerStats()
        self.refresh_scheduler.stats = RefreshStats()
        for bank in self.controller.banks:
            bank.stats = BankStats()
        for bus in self.controller.buses:
            bus.busy_cycles = 0
        for task in self.tasks:
            task.stats = TaskStats()
            if task.current_core is not None:
                task._scheduled_at = now
                task.stats.quanta = 1
        self.scheduler.context_switches = 0
        if isinstance(self.scheduler, RefreshAwareScheduler):
            self.scheduler.clean_picks = 0
            self.scheduler.fallback_picks = 0

    def _collect(self, measure_start: int) -> RunResult:
        now = self.engine.now
        # Close each running task's accounting interval.
        for core in self.cores:
            core.sync_accounting(now)
            task = core.current_task
            if task is not None and task._scheduled_at is not None:
                task.stats.scheduled_cycles += now - task._scheduled_at
                task._scheduled_at = now

        elapsed = now - measure_start
        mc_stats = self.controller.stats
        task_results = [
            TaskResult(
                task_id=t.task_id,
                name=t.name,
                instructions=t.stats.instructions,
                scheduled_cycles=t.stats.scheduled_cycles,
                quanta=t.stats.quanta,
                reads_completed=t.stats.reads_completed,
                avg_read_latency_cycles=t.stats.avg_read_latency,
                refresh_stall_cycles=t.stats.refresh_stall_sum,
            )
            for t in self.tasks
        ]
        clean = fallback = 0
        if isinstance(self.scheduler, RefreshAwareScheduler):
            clean = self.scheduler.clean_picks
            fallback = self.scheduler.fallback_picks
        from repro.dram.power import estimate_energy

        energy = estimate_energy(self.controller, elapsed)
        return RunResult(
            energy=energy,
            scenario=self.scenario.name,
            workload=self.workload_name,
            density_gbit=self.config.density_gbit,
            trefw_ms=self.config.trefw_ps / 1e9,
            simulated_cycles=elapsed,
            tasks=task_results,
            reads_completed=mc_stats.reads_completed,
            writes_completed=mc_stats.writes_completed,
            avg_read_latency_cycles=mc_stats.avg_read_latency,
            cpu_per_mem_cycle=self.timing.cpu_per_mem_cycle,
            row_hit_rate=mc_stats.row_hit_rate,
            refresh_commands=self.refresh_scheduler.stats.commands_issued,
            refresh_stall_cycles=mc_stats.refresh_stall_sum,
            refresh_stalled_reads=mc_stats.refresh_stalled_reads,
            context_switches=self.scheduler.context_switches,
            scheduler_clean_picks=clean,
            scheduler_fallback_picks=fallback,
            bus_utilization=self.controller.buses[0].utilization(elapsed),
        )

    # -- checkpoint/restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Deterministic-barrier snapshot of the full machine.

        Only legal between events (the engine refuses mid-bucket).
        Telemetry sinks, monitors and profilers are runtime observers,
        not simulator state, and are deliberately not captured.  The
        composite is assembled incrementally because encoding the engine
        queue discovers in-flight ``_complete`` requests that the
        ``requests`` table must also carry.
        """
        now = self.engine.now
        for core in self.cores:
            core.sync_accounting(now)
        requests = {r.req_id: r for r in self.controller.queued_requests()}
        keys = {id(o): k for k, o in self._entry_owners().items() if o is not None}

        def encode_entry(fn, arg) -> list:
            # A queued bound method as [owner key, method name, argument].
            owner = getattr(fn, "__self__", None)
            name = getattr(fn, "__name__", repr(fn))
            key = keys.get(id(owner)) if owner is not None else None
            if key is None:
                raise SimulationError(
                    f"cannot snapshot callback {name!r} bound to "
                    f"{type(owner).__name__}"
                )
            if name == "_complete" and key == "controller":
                requests[arg.req_id] = arg  # in flight: out of every queue
            return [key, name, _arg_codec(key, name).encode(arg)]

        state = {}
        state["engine"] = self.engine.snapshot_state(encode_entry)
        state["requests"] = [
            self._encode_request(requests[rid]) for rid in sorted(requests)
        ]
        state["controller"] = self.controller.snapshot_state()
        state["refresh"] = {
            "policy": self.scenario.refresh_policy,
            "state": self.refresh_scheduler.snapshot_state(),
        }
        state["cores"] = COMPONENTS.encode(self.cores)
        state["tasks"] = COMPONENTS.encode(self.tasks)
        state["memory"] = self.memory.snapshot_state()
        state["allocator"] = self.allocator.snapshot_state()
        state["scheduler"] = self.scheduler.snapshot_state()
        state["load_balancer"] = COMPONENT.encode(self.load_balancer)
        state["run"] = {
            "measure_start": self._measure_start,
            "end": self._run_end,
            "sampler": (
                None
                if self._sampler is None
                else {
                    "samples_per_window": self._sampler_windows,
                    "state": self._sampler.snapshot_state(),
                }
            ),
        }
        return state

    def restore_state(self, state: dict) -> None:
        """Rebuild the machine from a :meth:`snapshot_state` payload taken
        on an identically configured system (the constructor's
        ``resume_state`` path; :meth:`run` then continues it).  *state*
        stays unchanged, and the machine shares no mutable list or map
        with it (``tests/integration/test_warm_start.py``).

        Restoring under a *different* refresh policy is supported: the
        snapshot's refresh events are dropped and the new policy starts
        mid-run (the contract documented on ``RefreshScheduler.start``).
        Order matters: tasks and cores restore before the request table
        (decoded ROB entries need the restored windows); the sampler is
        recreated before the engine queue (its tick descriptors must
        decode); the engine restores last.  A malformed payload raises
        :class:`~repro.errors.CheckpointError` naming the path.
        """
        OBJECT.decode(state)
        refs = {"task": {task.task_id: task for task in self.tasks}}
        field(state, "tasks", COMPONENTS, refs, self.tasks)
        field(state, "memory", COMPONENT, refs, self.memory)
        field(state, "allocator", COMPONENT, refs, self.allocator)
        field(state, "cores", COMPONENTS, refs, self.cores)
        requests = field(
            state, "requests", listof(Codec(None, self._decode_request)), refs
        )
        refs["request"] = {request.req_id: request for request in requests}
        field(state, "controller", COMPONENT, refs, self.controller)
        field(state, "scheduler", COMPONENT, refs, self.scheduler)
        lb_state = field(state, "load_balancer", optional(OBJECT))
        if lb_state is not None and self.load_balancer is not None:
            field(state, "load_balancer", COMPONENT, refs, self.load_balancer)
        refresh = field(state, "refresh", OBJECT)
        with at("refresh"):
            policy = field(refresh, "policy", STRING)
            same_refresh = policy == self.scenario.refresh_policy
            if same_refresh:
                field(refresh, "state", COMPONENT, refs, self.refresh_scheduler)
        run = field(state, "run", OBJECT)
        with at("run"):
            self._measure_start = field(run, "measure_start", OPT_INT)
            self._run_end = field(run, "end", OPT_INT)
            sampler = field(run, "sampler", optional(OBJECT))
            if sampler is not None:
                from repro.telemetry.timeseries import TimeseriesSampler

                with at("sampler"):
                    self._sampler_windows = field(sampler, "samples_per_window", INT)
                    self._sampler = TimeseriesSampler(self, self._sampler_windows)
                    field(sampler, "state", COMPONENT, refs, self._sampler)
        owners = self._entry_owners(same_refresh)
        engine_state = field(state, "engine", OBJECT)
        with at("engine"):
            self.engine.restore_state(
                engine_state, lambda desc: self._decode_entry(desc, refs, owners)
            )
        if not same_refresh:
            self.refresh_scheduler.start()
        if lb_state is None and self.load_balancer is not None:
            self.load_balancer.start()
        self._restored = True

    # -- engine-entry codecs ---------------------------------------------------

    def _entry_owners(self, same_refresh: bool = True) -> dict:
        """Descriptor owner key -> the component whose bound methods an
        engine entry may call (``None``: absent here, or a new refresh
        policy that starts mid-run instead of restoring entries)."""
        return {
            "controller": self.controller,
            "refresh": self.refresh_scheduler if same_refresh else None,
            "sched": self.scheduler,
            "lb": self.load_balancer,
            "sampler": self._sampler,
            **{f"core:{core.core_id}": core for core in self.cores},
        }

    def _decode_entry(self, desc, refs: dict, owners: dict):
        """Inverse of the descriptors :meth:`snapshot_state` writes;
        ``None`` drops the entry."""
        owner_key, name, arg = _ENTRY.decode(desc)
        if owner_key not in owners:
            raise CheckpointError(f"unknown callback owner {owner_key!r}")
        owner = owners[owner_key]
        if owner is None:
            return None
        return _method(owner, name), _arg_codec(owner_key, name).decode(arg, refs)

    # -- request codec ---------------------------------------------------------

    def _encode_request(self, request: MemoryRequest) -> dict:
        """Serialize one queued/in-flight request.  The coordinate is
        recomputed from the address on restore; a ROB entry referenced by
        a *stale-epoch* ctx is encoded as a dangling index (``None``) —
        the completion path discards stale-epoch contexts before touching
        the entry."""
        core_id = None
        if request.on_complete is not None:
            core_id = request.on_complete.__self__.core_id
        ctx = None
        if request.ctx is not None:
            epoch, task, entry = request.ctx
            core = self.cores[core_id]
            rob_index = core.rob_index(entry) if epoch == core._epoch else None
            ctx = [epoch, task.task_id, rob_index]
        return {
            "req_id": request.req_id,
            "rtype": request.rtype.value,
            "address": request.address,
            "task_id": request.task_id,
            "arrive_time": request.arrive_time,
            "start_time": request.start_time,
            "refresh_stall": request.refresh_stall,
            "row_hit": request.row_hit,
            "core_id": core_id,
            "ctx": ctx,
        }

    def _decode_request(self, data, refs: dict, current=None) -> MemoryRequest:
        OBJECT.decode(data)
        address = field(data, "address", INT)
        request = MemoryRequest(
            field(data, "rtype", _RTYPE),
            address,
            self.mapping.address_to_coordinate(address),
            task_id=field(data, "task_id", INT),
            req_id=field(data, "req_id", INT),
        )
        request.arrive_time = field(data, "arrive_time", INT)
        request.start_time = field(data, "start_time", INT)
        request.refresh_stall = field(data, "refresh_stall", INT)
        request.row_hit = field(data, "row_hit", BOOL)
        core_id = field(data, "core_id", OPT_INT)
        ctx = field(data, "ctx", optional(_REQUEST_CTX), refs)
        if core_id is not None:
            core = self.cores[core_id]
            request.on_complete = core._on_read_complete
            if ctx is not None:
                epoch, task, rob_index = ctx
                entry = None if rob_index is None else core.rob_entry(rob_index)
                request.ctx = (epoch, task, entry)
        return request
