"""Top-level simulation API behind :mod:`repro.api`.

A run is a pure function of a serializable
:class:`~repro.core.runspec.RunSpec`: :func:`make_run_spec` resolves
workload/scenario/config into a spec, :func:`run_spec` executes it.  The
experiment layer builds specs in bulk and fans them out across processes;
:func:`repro.api.run` is the one-call entry point for a single run.

Resolving specs needs only data types, so the simulation kernel
(:class:`~repro.core.system.System` and everything it wires) is
imported by the functions that build a machine, on a process's first
simulation: a process that only resolves, hashes or serves specs never
loads it.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional, Sequence

from repro import serialize
from repro.config.scenarios import SCENARIOS, Scenario, scenario as get_scenario
from repro.config.system_configs import SystemConfig, default_system_config
from repro.core.results import RunResult
from repro.core.runspec import RunSpec
from repro.errors import CheckpointError, ConfigError
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.mixes import WORKLOAD_MIXES, workload_mix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import System
    from repro.obs.monitors import MonitorSuite
    from repro.telemetry.hub import Telemetry


def resolve_workload(
    workload: str | Sequence[BenchmarkSpec],
) -> tuple[str, list[BenchmarkSpec]]:
    """Accept either a Table 2 mix name or an explicit spec list."""
    if isinstance(workload, str):
        return workload, workload_mix(workload)
    specs = list(workload)
    if not specs:
        raise ConfigError("workload spec list must not be empty")
    return "custom", specs


def _resolve_config(
    config: Optional[SystemConfig], overrides: dict
) -> SystemConfig:
    """*config* (default: the paper's, :func:`default_system_config`)
    with *overrides* applied and validated."""
    if config is None:
        return default_system_config(**overrides)
    if overrides:
        config = config.with_(**overrides)
        serialize.validated(config)
    return config


def build_system(
    workload: str | Sequence[BenchmarkSpec] = "WL-6",
    scenario: str | Scenario = "codesign",
    config: Optional[SystemConfig] = None,
    banks_per_task: int | None = None,
    **config_overrides,
) -> System:
    """Construct (but do not run) a fully wired :class:`System`."""
    return build_system_from_spec(
        make_run_spec(
            workload,
            scenario,
            config,
            banks_per_task=banks_per_task,
            **config_overrides,
        )
    )


def make_run_spec(
    workload: str | Sequence[BenchmarkSpec] = "WL-6",
    scenario: str | Scenario = "codesign",
    config: Optional[SystemConfig] = None,
    num_windows: float = 2.0,
    warmup_windows: float = 0.25,
    banks_per_task: int | None = None,
    sample_windows: int | None = None,
    **config_overrides,
) -> RunSpec:
    """Resolve workload/scenario/config into a serializable :class:`RunSpec`.

    The same arguments :func:`repro.api.run` accepts; the returned spec
    fully determines the run (mix names are expanded to explicit
    :class:`BenchmarkSpec` tuples, the config is fully resolved).
    """
    config = _resolve_config(config, config_overrides)
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    name, specs = resolve_workload(workload)
    spec = RunSpec(
        workload_name=name,
        specs=tuple(specs),
        scenario=scenario,
        config=config,
        num_windows=num_windows,
        warmup_windows=warmup_windows,
        banks_per_task=banks_per_task,
        sample_windows=sample_windows,
    )
    spec.validate()
    return spec


def build_system_from_spec(
    spec: RunSpec,
    telemetry: Optional[Telemetry] = None,
    resume_state: Optional[dict] = None,
) -> System:
    """Construct (but do not run) the :class:`System` a spec describes.

    ``telemetry`` carries runtime-only event sinks (``--trace``); it is
    deliberately *not* part of the spec or its content hash because sinks
    observe a run without changing its result.  ``resume_state`` builds
    the machine from a snapshot instead of allocating it cold (see
    :class:`System`); a malformed one raises
    :class:`~repro.errors.CheckpointError`.
    """
    from repro.core.system import System

    return System(
        spec.config,
        list(spec.specs),
        spec.scenario,
        workload_name=spec.workload_name,
        banks_per_task=spec.banks_per_task,
        telemetry=telemetry,
        resume_state=resume_state,
    )


def prefix_spec_of(spec: RunSpec) -> RunSpec:
    """The warm-up prefix spec of a warm-started run: the same run with
    ``warmup_scenario`` promoted to the scenario.  Every target scenario
    sharing a warm-up prefix maps to the same prefix spec — and therefore
    the same checkpoint-store key."""
    if spec.warmup_scenario is None:
        raise ConfigError("spec has no warmup_scenario")
    return spec.with_(
        scenario=get_scenario(spec.warmup_scenario),
        warmup_scenario=None,
        resume_from=None,
    )


def warm_start_state(spec: RunSpec, store=None) -> tuple[dict, str]:
    """The measurement-boundary snapshot of *spec*'s warm-up prefix.

    Runs the prefix (warm-up under ``spec.warmup_scenario``), capturing
    the machine state at the measurement boundary; with a
    :class:`~repro.core.checkpoint.CheckpointStore` the capture is reused
    across calls keyed by the prefix spec's content hash.  Returns
    ``(state, provenance)`` where provenance is ``"<hash>@<cycle>"``.

    The cold (store-miss) path takes the identical snapshot, so a
    warm-started result is bit-identical whether or not the store hit.
    The state may be the store's own copy, shared with later calls:
    restore it, never change it.
    """
    from repro.dram.timing import DramTiming

    prefix = prefix_spec_of(spec)
    key = prefix.content_hash()
    cycle = int(
        DramTiming.from_config(prefix.config).trefw * prefix.warmup_windows
    )
    if store is not None:
        state = store.get(key, cycle)
        if state is not None:
            return state, f"{key}@{cycle}"
    captured: dict = {}

    def capture(at: int, state: dict) -> bool:
        captured["cycle"] = at
        captured["state"] = state
        return True  # halt: only the prefix is needed

    system = build_system_from_spec(prefix)
    out = system.run(
        num_windows=prefix.num_windows,
        warmup_windows=prefix.warmup_windows,
        sample_windows=prefix.sample_windows,
        checkpoint_sink=capture,
        checkpoint_measure_start=True,
    )
    assert out is None and captured["cycle"] == cycle
    if store is not None:
        store.put(key, prefix, cycle, captured["state"])
    return captured["state"], f"{key}@{cycle}"


def warm_started_system(
    spec: RunSpec,
    telemetry: Optional[Telemetry] = None,
    checkpoint_store=None,
    restore_span=None,
) -> System:
    """The :class:`System` of a warm-started *spec*, built from its
    warm-up prefix's measurement-boundary snapshot (:func:`warm_start_state`).

    A stored prefix that does not restore is a miss: it is discarded and
    recomputed.  ``restore_span`` (a no-argument context-manager factory
    whose span takes ``set(detail=...)``) wraps each prefix fetch, for
    the service's tracing.
    """
    hits = checkpoint_store.hits if checkpoint_store is not None else 0
    with restore_span() if restore_span is not None else nullcontext() as span:
        state, provenance = warm_start_state(spec, checkpoint_store)
        if span is not None:
            span.set(detail=provenance)
    try:
        return build_system_from_spec(spec, telemetry=telemetry, resume_state=state)
    except CheckpointError:
        if checkpoint_store is None or checkpoint_store.hits == hits:
            raise  # computed just now, not read from the store
    key, cycle = provenance.split("@")
    checkpoint_store.discard(key, int(cycle))
    return warm_started_system(spec, telemetry, checkpoint_store, restore_span)


def run_spec(
    spec: RunSpec,
    telemetry: Optional[Telemetry] = None,
    checkpoint_store=None,
    monitors: Optional["MonitorSuite"] = None,
    restore_span=None,
) -> RunResult:
    """Execute one :class:`RunSpec` — a pure, deterministic function of the
    spec's content (the engine seeds every RNG from ``config.seed``).
    Attached event sinks observe the run but never change its result.

    A spec with ``warmup_scenario`` set is executed in two phases: the
    warm-up prefix runs (or is fetched from ``checkpoint_store``) under
    the warm-up scenario, and the measured interval resumes from its
    measurement-boundary snapshot under the target scenario
    (:func:`warm_started_system`, which wraps each prefix fetch in
    ``restore_span``).

    ``monitors`` (a :class:`~repro.obs.monitors.MonitorSuite`) checks the
    run's event stream on *telemetry* (a fresh hub when none is given)
    and sets ``result.monitor_violations``, ``[]`` for a clean run; a
    warm start's prefix is not monitored, and a strict suite raises
    :class:`~repro.errors.MonitorError` at the first violation."""
    if monitors is not None:
        if telemetry is None:
            from repro.telemetry.hub import Telemetry

            telemetry = Telemetry()
        monitors.attach(telemetry)
    resume_time = None
    if spec.warmup_scenario is not None:
        system = warm_started_system(
            spec, telemetry, checkpoint_store, restore_span
        )
        resume_time = system.engine.now
    else:
        system = build_system_from_spec(spec, telemetry=telemetry)
    if monitors is not None:
        monitors.bind(system, resume_time=resume_time)
    result = system.run(
        num_windows=spec.num_windows,
        warmup_windows=spec.warmup_windows,
        sample_windows=spec.sample_windows,
    )
    if monitors is not None:
        monitors.finish(system.engine.now)
        result.monitor_violations = monitors.violations()
    return result


def sweep_specs(
    workloads: Sequence[str | Sequence[BenchmarkSpec]],
    scenarios: Sequence[str | Scenario],
    config: Optional[SystemConfig] = None,
    num_windows: float = 2.0,
    warmup_windows: float = 0.25,
    banks_per_task: int | None = None,
    sample_windows: int | None = None,
    warmup_scenario: str | None = None,
    **config_overrides,
) -> list[RunSpec]:
    """Decompose a sweep into its per-run jobs: one :class:`RunSpec` per
    ``workload x scenario`` cell, in row-major submission order.

    This is the job-decomposition step shared by the local sweep CLI,
    :func:`repro.api.sweep` and the sweep service: a sweep *is* its spec
    list, and every downstream layer (cache, dedup table, workers) keys
    on the individual specs' content hashes.  Duplicate
    cells (same content hash) are collapsed, keeping first position.
    The config is resolved once, so every cell shares one
    :class:`SystemConfig` and its canonical text is encoded once.
    """
    if not workloads:
        raise ConfigError("sweep_specs: workloads must not be empty")
    if not scenarios:
        raise ConfigError("sweep_specs: scenarios must not be empty")
    config = _resolve_config(config, config_overrides)
    specs: list[RunSpec] = []
    seen: set[str] = set()
    for workload in workloads:
        for scenario in scenarios:
            spec = make_run_spec(
                workload,
                scenario,
                config,
                num_windows=num_windows,
                warmup_windows=warmup_windows,
                banks_per_task=banks_per_task,
                sample_windows=sample_windows,
            )
            if warmup_scenario is not None:
                spec = spec.with_(warmup_scenario=warmup_scenario)
                spec.validate()
            key = spec.content_hash()
            if key not in seen:
                seen.add(key)
                specs.append(spec)
    return specs


def compare_scenarios(
    workload: str | Sequence[BenchmarkSpec],
    scenarios: Sequence[str],
    config: Optional[SystemConfig] = None,
    num_windows: float = 2.0,
    warmup_windows: float = 0.25,
    **config_overrides,
) -> dict[str, RunResult]:
    """Run the same workload under several scenarios (same seed/config)."""
    return {
        name: run_spec(
            make_run_spec(
                workload,
                name,
                config,
                num_windows=num_windows,
                warmup_windows=warmup_windows,
                **config_overrides,
            )
        )
        for name in scenarios
    }


def available_scenarios() -> list[str]:
    return sorted(SCENARIOS)


def available_workloads() -> list[str]:
    return list(WORKLOAD_MIXES)
