"""Full-system assembly: cores + caches + controller + OS + workloads.

:class:`System` builds every component from a :class:`SystemConfig` and a
scenario description, allocates task footprints through the configured
allocator, and runs the simulation for a number of (scaled) retention
windows, returning a :class:`~repro.core.results.RunResult`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.config.system_configs import SystemConfig
from repro.core.engine import Engine
from repro.core.results import RunResult, TaskResult
from repro.cpu.core import Core, decode_access, encode_access
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.refresh import make_scheduler, validate_policy
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming
from repro.errors import ConfigError, SimulationError
from repro.os.codesign import assign_bank_vectors
from repro.os.page import PhysicalMemory
from repro.os.partition import PartitioningAllocator, PartitionPolicy
from repro.os.refresh_aware import RefreshAwareScheduler
from repro.os.scheduler import CfsScheduler
from repro.os.task import Task
from repro.telemetry.events import SchedulerPickEvent
from repro.telemetry.hub import Telemetry
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.benchmark import BenchmarkSpec, StatisticalWorkload


@dataclass(frozen=True)
class Scenario:
    """A named combination of refresh policy, OS scheduler and allocator."""

    name: str
    refresh_policy: str
    refresh_aware: bool = False
    partition: PartitionPolicy = PartitionPolicy.NONE
    best_effort: bool = False

    def __post_init__(self):
        # Fail at construction, not at System build time: an unknown
        # policy name in a sweep definition surfaces immediately, with a
        # did-you-mean suggestion.
        validate_policy(self.refresh_policy)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "refresh_policy": self.refresh_policy,
            "refresh_aware": self.refresh_aware,
            "partition": self.partition.value,
            "best_effort": self.best_effort,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        from repro.serialize import dataclass_from_dict

        data = dict(data)
        try:
            data["partition"] = PartitionPolicy(data["partition"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"Scenario: bad partition policy ({exc})") from None
        return dataclass_from_dict(cls, data)

    def content_hash(self) -> str:
        """Content hash over the full scenario, not just its name — two
        differently configured scenarios that share a name never alias."""
        from repro.serialize import content_hash

        return content_hash(self)


#: The scenarios evaluated in the paper (Section 6) plus ablations.
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in [
        Scenario("no_refresh", "no_refresh"),
        Scenario("all_bank", "all_bank"),
        Scenario("per_bank", "per_bank"),
        Scenario("ooo_per_bank", "ooo_per_bank"),
        Scenario("adaptive", "adaptive"),
        Scenario("elastic", "elastic"),
        Scenario("pausing", "pausing"),
        # The full co-design: same-bank refresh + soft partitioning +
        # refresh-aware scheduling (Section 5.3).
        Scenario(
            "codesign",
            "same_bank",
            refresh_aware=True,
            partition=PartitionPolicy.SOFT,
        ),
        # Section 5.4.1 generalization for spilling footprints.
        Scenario(
            "codesign_best_effort",
            "same_bank",
            refresh_aware=True,
            partition=PartitionPolicy.SOFT,
            best_effort=True,
        ),
        # Hard partitioning variant (Section 5.2.1).
        Scenario(
            "codesign_hard",
            "same_bank",
            refresh_aware=True,
            partition=PartitionPolicy.HARD,
        ),
        # Ablation: proposed hardware schedule without the OS changes.
        Scenario("same_bank_hw_only", "same_bank"),
        # Ablation: partitioning + refresh-aware OS on round-robin per-bank
        # refresh is impossible (unpredictable); partitioning alone:
        Scenario(
            "partition_only",
            "per_bank",
            partition=PartitionPolicy.SOFT,
        ),
    ]
}


def scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None


class System:
    """One fully wired simulated machine."""

    def __init__(
        self,
        config: SystemConfig,
        specs: list[BenchmarkSpec],
        scenario: Scenario,
        workload_name: str = "custom",
        banks_per_task: int | None = None,
        telemetry: Telemetry | None = None,
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

        rows_for_mapping = max(
            1, config.bank_capacity_bytes // config.organization.row_size_bytes
        )
        self.mapping = AddressMapping(
            config.organization, rows_for_mapping, layout=config.address_layout
        )
        self.controller = MemoryController(
            self.engine,
            self.timing,
            config.organization,
            self.mapping,
            read_queue_depth=config.read_queue_depth,
            write_queue_depth=config.write_queue_depth,
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
        self._allocate_footprints()

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
        self.scheduler.subscribe(self._emit_pick)

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
        # Run progress (set when the measured interval begins, or restored
        # from a checkpoint) and the live sampler, if any.
        self._measure_start: int | None = None
        self._run_end: int | None = None
        self._sampler = None
        self._sampler_windows: int | None = None
        # Scratch request table used while encoding an engine snapshot.
        self._pending_requests: dict | None = None

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

    def _allocate_footprints(self) -> None:
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
                if os_config.prefault:
                    vm.prefault_all()
            else:
                self.allocator.alloc_footprint(task, pages)

    # -- telemetry ---------------------------------------------------------------

    def _emit_pick(self, time: int, core_id: int, task) -> None:
        """Pick observer installed on the scheduler: enriches the raw
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
        resume_state: dict | None = None,
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
        warm-start capture point).  ``resume_state`` restores a prior
        snapshot instead of starting cold and continues to the end
        recorded in it; ``num_windows``/``warmup_windows`` are only
        consulted when the snapshot predates the measured interval.
        """
        if self._started:
            raise ConfigError("a System can only be run once")
        self._started = True  # repro: noqa[RPR011] run-once latch; a resumed run sets it again on entry
        if resume_state is not None:
            self.restore_state(resume_state)
        else:
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
        self._pending_requests = {  # repro: noqa[RPR011] encode-phase scratch, reset to None before this method returns
            r.req_id: r for r in self.controller.queued_requests()
        }
        state = {}
        state["engine"] = self.engine.snapshot_state(self._encode_entry)
        state["requests"] = [
            self._encode_request(self._pending_requests[rid])
            for rid in sorted(self._pending_requests)
        ]
        self._pending_requests = None
        state["controller"] = self.controller.snapshot_state()
        state["refresh"] = {
            "policy": self.scenario.refresh_policy,
            "state": self.refresh_scheduler.snapshot_state(),
        }
        state["cores"] = [core.snapshot_state() for core in self.cores]
        state["tasks"] = [task.snapshot_state() for task in self.tasks]
        state["memory"] = self.memory.snapshot_state()
        state["allocator"] = self.allocator.snapshot_state()
        state["scheduler"] = self.scheduler.snapshot_state()
        state["load_balancer"] = (
            None
            if self.load_balancer is None
            else self.load_balancer.snapshot_state()
        )
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
        on an identically configured system.

        Restoring under a *different* refresh policy is supported: the
        snapshot's refresh events are dropped and the new policy starts
        mid-run (the contract documented on ``RefreshScheduler.start``).
        Order matters: tasks and cores restore before the request table
        (decoded ROB entries need the restored windows); the sampler is
        recreated before the engine queue (its tick descriptors must
        decode); the engine restores last.
        """
        task_by_id = {}
        for task, task_state in zip(self.tasks, state["tasks"]):
            task.restore_state(task_state)
            task_by_id[task.task_id] = task
        self.memory.restore_state(state["memory"])
        self.allocator.restore_state(state["allocator"])
        for core, core_state in zip(self.cores, state["cores"]):
            core.restore_state(core_state, task_by_id)
        requests = {}
        for req_data in state["requests"]:
            request = self._decode_request(req_data, task_by_id)
            requests[request.req_id] = request
        self.controller.restore_state(state["controller"], requests)
        self.scheduler.restore_state(state["scheduler"], task_by_id)
        lb_state = state["load_balancer"]
        if lb_state is not None and self.load_balancer is not None:
            self.load_balancer.restore_state(lb_state)
        same_refresh = (
            state["refresh"]["policy"] == self.scenario.refresh_policy
        )
        if same_refresh:
            self.refresh_scheduler.restore_state(state["refresh"]["state"])
        run = state["run"]
        self._measure_start = run["measure_start"]
        self._run_end = run["end"]
        sampler_state = run["sampler"]
        if sampler_state is not None:
            from repro.telemetry.timeseries import TimeseriesSampler

            self._sampler_windows = int(sampler_state["samples_per_window"])
            self._sampler = TimeseriesSampler(self, self._sampler_windows)
            self._sampler.restore_state(sampler_state["state"])
        self.engine.restore_state(
            state["engine"],
            lambda desc: self._decode_entry(desc, requests, same_refresh),
        )
        if not same_refresh:
            self.refresh_scheduler.start()
        if lb_state is None and self.load_balancer is not None:
            self.load_balancer.start()

    # -- engine-entry codecs ---------------------------------------------------

    def _encode_entry(self, fn, arg) -> list:
        """Map a queued bound-method callback to a JSON-able descriptor."""
        owner = getattr(fn, "__self__", None)
        name = getattr(fn, "__name__", repr(fn))
        if owner is None:
            raise SimulationError(f"cannot snapshot unbound callback {fn!r}")
        if owner is self.controller:
            if name == "_complete":
                self._pending_requests[arg.req_id] = arg
                return ["controller", name, arg.req_id]
            if name == "_pick_many":
                return ["controller", name, list(arg)]
            return ["controller", name, arg]
        if owner is self.refresh_scheduler:
            return ["refresh", name, list(arg) if isinstance(arg, tuple) else arg]
        if owner is self.scheduler:
            return ["sched", name, arg]
        if self.load_balancer is not None and owner is self.load_balancer:
            return ["lb", name, arg]
        if self._sampler is not None and owner is self._sampler:
            return ["sampler", name, arg]
        if isinstance(owner, Core):
            epoch, access = arg
            return [
                f"core:{owner.core_id}", name, [epoch, encode_access(access)]
            ]
        raise SimulationError(
            f"cannot snapshot callback {name!r} bound to "
            f"{type(owner).__name__}"
        )

    def _decode_entry(self, desc, requests: dict, same_refresh: bool):
        """Inverse of :meth:`_encode_entry`; ``None`` drops the entry."""
        owner_key, name, arg = desc
        if owner_key == "controller":
            fn = getattr(self.controller, name)
            if name == "_complete":
                return fn, requests[int(arg)]
            if name == "_pick_many":
                return fn, [int(flat) for flat in arg]
            return fn, int(arg)
        if owner_key == "refresh":
            if not same_refresh:
                return None  # new policy starts mid-run instead
            if isinstance(arg, list):
                arg = tuple(int(v) for v in arg)
            return getattr(self.refresh_scheduler, name), arg
        if owner_key == "sched":
            return getattr(self.scheduler, name), arg
        if owner_key == "lb":
            if self.load_balancer is None:
                return None
            return getattr(self.load_balancer, name), arg
        if owner_key == "sampler":
            if self._sampler is None:
                return None
            return getattr(self._sampler, name), arg
        if owner_key.startswith("core:"):
            core = self.cores[int(owner_key.split(":", 1)[1])]
            epoch, access_data = arg
            return getattr(core, name), (int(epoch), decode_access(access_data))
        raise SimulationError(f"cannot restore callback descriptor {desc!r}")

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

    def _decode_request(self, data: dict, task_by_id: dict) -> MemoryRequest:
        address = int(data["address"])
        request = MemoryRequest(
            RequestType(data["rtype"]),
            address,
            self.mapping.address_to_coordinate(address),
            task_id=int(data["task_id"]),
            req_id=int(data["req_id"]),
        )
        request.arrive_time = int(data["arrive_time"])
        request.start_time = int(data["start_time"])
        request.refresh_stall = int(data["refresh_stall"])
        request.row_hit = bool(data["row_hit"])
        core_id = data["core_id"]
        if core_id is not None:
            core = self.cores[int(core_id)]
            request.on_complete = core._on_read_complete
            ctx = data["ctx"]
            if ctx is not None:
                epoch, task_id, rob_index = ctx
                entry = (
                    core.rob_entry(int(rob_index))
                    if rob_index is not None
                    else None
                )
                request.ctx = (int(epoch), task_by_id[int(task_id)], entry)
        return request
