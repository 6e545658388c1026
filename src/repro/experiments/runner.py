"""Sweep infrastructure shared by all figure experiments.

A :class:`SweepRunner` turns every data point into a serializable
:class:`~repro.core.runspec.RunSpec` and resolves it through three tiers:

1. an in-process memo (same object returned for repeated calls),
2. a persistent on-disk result cache keyed by the spec's content hash
   (``~/.cache/repro`` or ``REPRO_CACHE_DIR``; schema-versioned and
   corruption-tolerant — see :mod:`repro.experiments.cache`), and
3. actual simulation, fanned out over a ``ProcessPoolExecutor`` when a
   figure batch-submits its sweep via :meth:`SweepRunner.prefetch`.

Parallelism defaults to the CPU count and is controlled by the
``REPRO_JOBS`` environment variable or the ``--jobs`` CLI flag.  The
engine is fully deterministic, so parallel results are bit-identical to
sequential ones, and a warm cache re-runs any figure with zero
simulations executed.

Profiles control simulation cost: ``QUICK_PROFILE`` (default; what
``pytest benchmarks`` and CI run) and ``FULL_PROFILE`` (longer windows,
finer refresh scaling) — select with the ``REPRO_PROFILE=full``
environment variable.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.config.scenarios import Scenario
from repro.core.checkpoint import CheckpointStore
from repro.core.results import RunResult
from repro.core.runspec import RunSpec
from repro.core.simulator import make_run_spec, run_spec as execute_run_spec
from repro.experiments.cache import ResultCache, default_jobs
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.mixes import mix_names

@dataclass(frozen=True)
class ExperimentProfile:
    """How much simulation to spend per data point."""

    name: str
    num_windows: float
    warmup_windows: float
    refresh_scale: int
    workloads: tuple[str, ...]


QUICK_PROFILE = ExperimentProfile(
    name="quick",
    num_windows=1.0,
    warmup_windows=0.25,
    refresh_scale=256,
    workloads=tuple(mix_names()),
)

FULL_PROFILE = ExperimentProfile(
    name="full",
    num_windows=2.0,
    warmup_windows=0.5,
    refresh_scale=64,
    workloads=tuple(mix_names()),
)

_PROFILES = {"quick": QUICK_PROFILE, "full": FULL_PROFILE}


def active_profile() -> ExperimentProfile:
    """Profile selected by ``REPRO_PROFILE`` (default: quick)."""
    return _PROFILES.get(os.environ.get("REPRO_PROFILE", "quick"), QUICK_PROFILE)


class SweepRunner:
    """Executes :class:`RunSpec`s with memoization, disk caching and
    process-parallel batch fan-out."""

    def __init__(
        self,
        profile: Optional[ExperimentProfile] = None,
        jobs: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        use_cache: bool = True,
    ):
        self.profile = profile or active_profile()
        self.jobs = jobs if jobs is not None else default_jobs()
        self.disk_cache = ResultCache(cache_dir) if use_cache else None
        # Warm-start checkpoints share the cache root; without caching a
        # warm-started sweep still works, it just re-runs each prefix.
        self.checkpoint_store = (
            CheckpointStore(cache_dir) if use_cache else None
        )
        self._memo: dict[str, RunResult] = {}
        #: Simulations actually executed (memo and disk hits excluded).
        self.runs_executed = 0
        self.memo_hits = 0

    @property
    def disk_hits(self) -> int:
        return self.disk_cache.hits if self.disk_cache is not None else 0

    # -- spec construction ------------------------------------------------------

    def spec(
        self,
        workload: str | Sequence[BenchmarkSpec],
        scenario: str | Scenario,
        banks_per_task: int | None = None,
        sample_windows: int | None = None,
        warmup_scenario: str | None = None,
        **config_overrides,
    ) -> RunSpec:
        """The :class:`RunSpec` for one data point under the active profile.

        ``sample_windows`` attaches a per-window timeseries to the result
        (cache-compatible: it is part of the spec's content hash).
        ``warmup_scenario`` makes the run warm-started: scenarios sharing
        one warm-up prefix reuse a single cached measurement-boundary
        checkpoint (see :func:`repro.core.simulator.warm_start_state`).
        """
        overrides = dict(config_overrides)
        overrides.setdefault("refresh_scale", self.profile.refresh_scale)
        spec = make_run_spec(
            workload,
            scenario,
            num_windows=self.profile.num_windows,
            warmup_windows=self.profile.warmup_windows,
            banks_per_task=banks_per_task,
            sample_windows=sample_windows,
            **overrides,
        )
        if warmup_scenario is not None:
            spec = spec.with_(warmup_scenario=warmup_scenario)
            spec.validate()
        return spec

    # -- execution --------------------------------------------------------------

    def run_spec(self, spec: RunSpec) -> RunResult:
        """Resolve one spec: memo -> disk cache -> execute."""
        result = self._memo.get(spec.content_hash())
        if result is not None:
            self.memo_hits += 1
            return result
        self.prefetch([spec])
        return self._memo[spec.content_hash()]

    def resolve(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """The results of *specs*, in order: one :meth:`prefetch` of the
        batch, then a memo read per spec."""
        self.prefetch(specs)
        return [self.run_spec(spec) for spec in specs]

    def run(
        self,
        workload: str | Sequence[BenchmarkSpec],
        scenario: str | Scenario,
        banks_per_task: int | None = None,
        **config_overrides,
    ) -> RunResult:
        """One simulation under the active profile (memoized + cached)."""
        return self.run_spec(
            self.spec(
                workload, scenario, banks_per_task=banks_per_task, **config_overrides
            )
        )

    def prefetch(self, specs: Iterable[RunSpec]) -> int:
        """Batch-resolve *specs*, executing cache misses in parallel.

        Deduplicates by content hash, satisfies what it can from the memo
        and the disk cache, and fans the remainder out over a
        ``ProcessPoolExecutor`` with :attr:`jobs` workers (inline when a
        single job or a single miss makes a pool pointless).  After
        prefetching, every ``run()`` call covered by *specs* is a memo
        hit.  Returns the number of simulations executed.
        :meth:`run_spec` resolves a memo miss through here too.
        """
        pending: dict[str, RunSpec] = {}
        for spec in specs:
            key = spec.content_hash()
            if key in self._memo or key in pending:
                continue
            if self.disk_cache is not None:
                cached = self.disk_cache.get(spec)
                if cached is not None:
                    self._memo[key] = cached.result
                    continue
            pending[key] = spec
        if not pending:
            return 0

        items = list(pending.items())
        # CheckpointStore holds only a path, so the partial pickles into
        # the worker pool; workers then share warm-start prefixes on disk.
        execute = functools.partial(
            execute_run_spec, checkpoint_store=self.checkpoint_store
        )
        if self.jobs > 1 and len(items) > 1:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(self.jobs, len(items))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(execute, [s for _, s in items], chunksize=1)
                )
        else:
            results = [execute(s) for _, s in items]

        for (key, spec), result in zip(items, results):
            self.runs_executed += 1
            self._memo[key] = result
            if self.disk_cache is not None:
                self.disk_cache.put(key, spec, result)
        return len(items)
