"""The supported public API surface of the ``repro`` package.

Everything a user of the reproduction needs is here, with one name per
job; the internal modules behind these functions may reorganize freely,
this facade will not.

=========================  ==================================================
Call                       Does
=========================  ==================================================
:func:`run`                Simulate one workload under one scenario.
:func:`sweep`              Run a workload x scenario matrix locally, with
                           the content-addressed cache and process fan-out.
:func:`submit`             Send one spec — or a whole sweep — to a running
                           sweep service (``python -m repro serve``).
:func:`warm_start`         The measurement-boundary snapshot of a
                           warm-started spec's warm-up prefix.
:func:`diff`               Compare two result artifacts — JSON files or
                           whole sweep directories matched by spec hash.
:func:`available_scenarios` / :func:`available_workloads` /
:func:`available_policies`
                           The valid names for the axes above.
=========================  ==================================================

Spec construction (:func:`make_run_spec`) and direct execution
(:func:`run_spec`) are re-exported for callers that build sweeps
programmatically.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.results import RunResult
from repro.core.runspec import RunSpec
from repro.core.simulator import (
    available_scenarios,
    available_workloads,
    make_run_spec,
    run_spec,
    sweep_specs,
    warm_start_state,
)
from repro.dram.refresh import available_policies

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.diff import DiffResult
    from repro.obs.sweepdiff import SweepDiffResult
    from repro.service.client import SweepOutcome

__all__ = [
    "RunResult",
    "RunSpec",
    "available_policies",
    "available_scenarios",
    "available_workloads",
    "diff",
    "figure",
    "make_run_spec",
    "run",
    "run_spec",
    "submit",
    "sweep",
    "sweep_specs",
    "warm_start",
]


def run(
    workload="WL-6",
    scenario="codesign",
    config=None,
    num_windows: float = 2.0,
    warmup_windows: float = 0.25,
    banks_per_task: Optional[int] = None,
    sample_windows: Optional[int] = None,
    telemetry=None,
    **config_overrides,
) -> RunResult:
    """Simulate one workload mix under one scenario.

    ``workload`` is a Table 2 mix name (``"WL-1"`` .. ``"WL-10"``) or an
    explicit :class:`~repro.workloads.benchmark.BenchmarkSpec` list;
    ``scenario`` a name from :func:`available_scenarios`.  Keyword
    overrides (``density_gbit``, ``trefw_ps``, ``refresh_scale``,
    ``seed``, ...) are applied on top of ``config``.  Returns a
    :class:`~repro.core.results.RunResult`.
    """
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
    return run_spec(spec, telemetry=telemetry)


def sweep(
    workloads: Sequence[str],
    scenarios: Sequence[str],
    jobs: Optional[int] = None,
    cache_dir: Optional[str | os.PathLike] = None,
    use_cache: bool = True,
    out: Optional[str | os.PathLike] = None,
    num_windows: float = 2.0,
    warmup_windows: float = 0.25,
    warmup_scenario: Optional[str] = None,
    **config_overrides,
) -> dict[str, RunResult]:
    """Run every ``workload x scenario`` cell locally.

    Decomposes through :func:`sweep_specs`, resolves through the
    memo/disk-cache/process-pool tiers of
    :meth:`SweepRunner.resolve <repro.experiments.runner.SweepRunner.resolve>`
    (``jobs`` worker processes), as ``python -m repro run`` and ``sweep``
    do, and returns results keyed by spec content hash.  With
    ``out`` set, one ``<hash>.json`` spec+result entry is written per
    cell — the directory format ``repro.obs diff`` and the service CLI
    share.
    """
    from repro.experiments.cache import write_result_entries
    from repro.experiments.runner import SweepRunner

    specs = sweep_specs(
        workloads,
        scenarios,
        num_windows=num_windows,
        warmup_windows=warmup_windows,
        warmup_scenario=warmup_scenario,
        **config_overrides,
    )
    runner = SweepRunner(jobs=jobs, cache_dir=cache_dir, use_cache=use_cache)
    pairs = list(zip(specs, runner.resolve(specs)))
    if out is not None:
        write_result_entries(out, pairs)
    return {spec.content_hash(): result for spec, result in pairs}


def submit(
    spec: RunSpec | Sequence[RunSpec],
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    stream: bool = False,
    monitors: Optional[str] = None,
    on_event=None,
) -> "RunResult | SweepOutcome":
    """Submit work to a running sweep service.

    One :class:`RunSpec` returns its :class:`RunResult`; a sequence of
    specs returns the full :class:`~repro.service.client.SweepOutcome`
    (results keyed by spec hash, per-job sources, server counters).
    Identical concurrent submissions — from this or any other client —
    collapse onto one simulation server-side.
    """
    from repro.service.client import ServiceClient
    from repro.telemetry.wire import DEFAULT_PORT

    with ServiceClient(host, port if port is not None else DEFAULT_PORT) as client:
        if isinstance(spec, RunSpec):
            result, _source = client.submit(
                spec, stream=stream, monitors=monitors, on_event=on_event
            )
            return result
        return client.sweep(
            specs=list(spec),
            stream=stream,
            monitors=monitors,
            on_event=on_event,
        )


def figure(name: int | str, **kwargs):
    """Run one paper-figure experiment and return its computed table.

    ``name`` is the figure number (``9``, ``"9"`` or ``"figure9"``) or
    ``"ablations"``, a key of :data:`repro.experiments.figures.FIGURES`.
    Keyword arguments go to :func:`repro.experiments.figures.run_figure`
    (``runner``, ``workloads``, or a non-sweep figure's own arguments
    such as Figure 9's ``trace_dir``).  Returns a
    :class:`~repro.experiments.figures.FigureResult`: its ``rows`` are
    ``(labels, values)`` pairs and ``text`` is the printed table.
    """
    from repro.experiments.figures import FIGURES, run_figure

    label = str(name)
    key = label if label.startswith("figure") or label == "ablations" else f"figure{label}"
    if key not in FIGURES:
        raise ValueError(f"unknown figure {name!r}; known: {sorted(FIGURES)}")
    return run_figure(FIGURES[key], **kwargs)


def warm_start(spec: RunSpec, store=None) -> tuple[dict, str]:
    """The measurement-boundary snapshot of *spec*'s warm-up prefix.

    Requires ``spec.warmup_scenario``; with a
    :class:`~repro.core.checkpoint.CheckpointStore` the snapshot is
    cached by prefix-spec hash so sweeps sharing a warm-up prefix
    simulate it once.  Returns ``(state, "<hash>@<cycle>")``.  Build a
    machine from the state with
    :func:`~repro.core.simulator.build_system_from_spec`
    (``resume_state=state``) and never change it: it may be the store's
    own copy.
    """
    return warm_start_state(spec, store)


def diff(
    a: str | os.PathLike,
    b: str | os.PathLike,
    rules: Optional[list] = None,
) -> "DiffResult | SweepDiffResult":
    """Compare two result artifacts.

    Two JSON files diff leaf-by-leaf
    (:func:`repro.obs.diff.diff_files`); two directories diff as sweeps
    — entries matched by spec content hash, per-spec verdicts plus
    unmatched specs (:func:`repro.obs.sweepdiff.diff_sweep_dirs`).
    ``rules`` are :class:`~repro.obs.diff.ToleranceRule` instances; the
    returned object's ``exit_code`` is 0 identical / 1 within tolerance
    / 2 regression.
    """
    import pathlib

    from repro.obs.diff import diff_files
    from repro.obs.sweepdiff import diff_sweep_dirs

    path_a, path_b = pathlib.Path(a), pathlib.Path(b)
    if path_a.is_dir() and path_b.is_dir():
        return diff_sweep_dirs(path_a, path_b, rules=rules)
    if path_a.is_dir() or path_b.is_dir():
        raise ValueError(
            "diff needs two files or two directories, not one of each: "
            f"{a!r} vs {b!r}"
        )
    return diff_files(path_a, path_b, rules=rules)
