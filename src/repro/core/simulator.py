"""Top-level simulation API behind :mod:`repro.api`.

A run is a pure function of a serializable
:class:`~repro.core.runspec.RunSpec`: :func:`make_run_spec` resolves
workload/scenario/config into a spec, :func:`run_spec` executes it.  The
experiment layer builds specs in bulk and fans them out across processes;
:func:`repro.api.run` is the one-call entry point for a single run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config.system_configs import SystemConfig, default_system_config
from repro.core.results import RunResult
from repro.core.runspec import RunSpec
from repro.core.system import SCENARIOS, Scenario, System, scenario as get_scenario
from repro.dram.timing import DramTiming
from repro.errors import CheckpointError, ConfigError
from repro.telemetry.hub import Telemetry
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.mixes import WORKLOAD_MIXES, workload_mix


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


def build_system(
    workload: str | Sequence[BenchmarkSpec] = "WL-6",
    scenario: str | Scenario = "codesign",
    config: Optional[SystemConfig] = None,
    banks_per_task: int | None = None,
    **config_overrides,
) -> System:
    """Construct (but do not run) a fully wired :class:`System`."""
    if config is None:
        config = default_system_config(**config_overrides)
    elif config_overrides:
        config = config.with_(**config_overrides)
        config.validate()
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    name, specs = resolve_workload(workload)
    return System(
        config, specs, scenario, workload_name=name, banks_per_task=banks_per_task
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
    if config is None:
        config = default_system_config(**config_overrides)
    elif config_overrides:
        config = config.with_(**config_overrides)
        config.validate()
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
    spec: RunSpec, telemetry: Optional[Telemetry] = None
) -> System:
    """Construct (but do not run) the :class:`System` a spec describes.

    ``telemetry`` carries runtime-only event sinks (``--trace``); it is
    deliberately *not* part of the spec or its content hash because sinks
    observe a run without changing its result.
    """
    return System(
        spec.config,
        list(spec.specs),
        spec.scenario,
        workload_name=spec.workload_name,
        banks_per_task=spec.banks_per_task,
        telemetry=telemetry,
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
    """
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


def run_spec(
    spec: RunSpec,
    telemetry: Optional[Telemetry] = None,
    checkpoint_store=None,
) -> RunResult:
    """Execute one :class:`RunSpec` — a pure, deterministic function of the
    spec's content (the engine seeds every RNG from ``config.seed``).
    Attached event sinks observe the run but never change its result.

    A spec with ``warmup_scenario`` set is executed in two phases: the
    warm-up prefix runs (or is fetched from ``checkpoint_store``) under
    the warm-up scenario, and the measured interval resumes from its
    measurement-boundary snapshot under the target scenario; a stored
    prefix that does not restore is a miss, discarded and recomputed."""
    if spec.warmup_scenario is not None:
        hits = checkpoint_store.hits if checkpoint_store is not None else 0
        state, provenance = warm_start_state(spec, checkpoint_store)
        try:
            return build_system_from_spec(spec, telemetry=telemetry).run(
                resume_state=state
            )
        except CheckpointError:
            if checkpoint_store is None or checkpoint_store.hits == hits:
                raise  # computed just now, not read from the store
        key, cycle = provenance.split("@")
        checkpoint_store.discard(key, int(cycle))
        return run_spec(spec, telemetry, checkpoint_store)
    system = build_system_from_spec(spec, telemetry=telemetry)
    return system.run(
        num_windows=spec.num_windows,
        warmup_windows=spec.warmup_windows,
        sample_windows=spec.sample_windows,
    )


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
    list, and every downstream layer (cache, dedup table, worker
    backends) keys on the individual specs' content hashes.  Duplicate
    cells (same content hash) are collapsed, keeping first position.
    """
    if not workloads:
        raise ConfigError("sweep_specs: workloads must not be empty")
    if not scenarios:
        raise ConfigError("sweep_specs: scenarios must not be empty")
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
                **config_overrides,
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
