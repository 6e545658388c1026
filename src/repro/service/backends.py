"""Worker backends: where the sweep service actually runs simulations.

The :class:`SweepService` decides *whether* a spec needs to run (dedup,
memo, disk cache); a :class:`WorkerBackend` decides *where*.  The
contract is deliberately tiny — ``submit(spec) -> Future[RunResult]`` —
so a backend can run a spec right here, on a thread or in a process
pool without the service caring.  Only plain jobs reach a backend: a
streamed or monitored job needs its live event stream, so the service
runs it in-process on an executor thread, whatever the backend.

================================  ==========================================
Backend                           Use case
================================  ==========================================
:class:`InlineBackend`            Tests and single-shot tools: executes in
                                  the caller's thread, returns a resolved
                                  future.  Blocks the server's event loop
                                  while simulating.
:class:`ThreadBackend`            Default for a live server: keeps the
                                  event loop responsive (the simulator is
                                  pure Python, so threads trade latency for
                                  fairness, not true parallelism).
:class:`ProcessPoolBackend`       Real sweep fan-out: generalizes the
                                  :class:`~repro.experiments.runner.SweepRunner`
                                  ``ProcessPoolExecutor`` path to service
                                  jobs.  Specs and results cross the
                                  process boundary by serialization.
================================  ==========================================

Every backend is constructed with an optional
:class:`~repro.core.checkpoint.CheckpointStore` that is forwarded to
:func:`repro.core.simulator.run_spec`, so warm-started specs sharing a
warm-up prefix reuse one checkpoint regardless of which worker runs them
(a store pickles across process pools as its path alone; threads share
the one store and its last entry in memory).  A traced job's worker
opens a ``run_spec`` span around :func:`~repro.core.simulator.run_spec`
and a ``restore`` span around each warm-up prefix fetch; the run itself
is the untraced one, so results stay bit-identical with tracing on.
"""

from __future__ import annotations

import functools
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Optional

from repro.core.checkpoint import CheckpointStore
from repro.core.results import RunResult
from repro.core.runspec import RunSpec
from repro.core.simulator import run_spec as execute_run_spec
from repro.errors import ServiceError
from repro.tracing import JobTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor


class WorkerBackend:
    """Execution seam: ``submit`` a spec, get a future for its result.

    Implementations must be safe to call from a single dispatching
    thread (the server's event loop); the returned future may complete
    on any thread.  ``close`` releases worker resources and is
    idempotent.
    """

    #: Registry name (set by subclasses; shown in ``status`` frames).
    name = "abstract"

    def submit(
        self,
        spec: RunSpec,
        trace: Optional[JobTrace] = None,
        parent: Optional[int] = None,
    ) -> "Future[RunResult]":
        """Run *spec*; with a :class:`~repro.tracing.JobTrace` the worker
        opens ``run_spec``/``restore`` spans parented under *parent*
        (the service's ``execute`` span)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (default: nothing to do)."""

    def _execute(
        self,
        spec: RunSpec,
        trace: Optional[JobTrace] = None,
        parent: Optional[int] = None,
    ) -> RunResult:
        if trace is None:
            return execute_run_spec(
                spec, checkpoint_store=self.checkpoint_store
            )
        with trace.span("run_spec", parent=parent) as root:
            result = execute_run_spec(
                spec,
                checkpoint_store=self.checkpoint_store,
                restore_span=functools.partial(
                    trace.span, "restore", parent=root.span_id
                ),
            )
            root.set(cycles=result.simulated_cycles,
                     detail=spec.content_hash())
        return result

    def __init__(self, checkpoint_store: Optional[CheckpointStore] = None):
        self.checkpoint_store = checkpoint_store


class InlineBackend(WorkerBackend):
    """Runs the simulation synchronously inside ``submit``."""

    name = "inline"

    def submit(
        self,
        spec: RunSpec,
        trace: Optional[JobTrace] = None,
        parent: Optional[int] = None,
    ) -> "Future[RunResult]":
        future: Future = Future()
        try:
            future.set_result(self._execute(spec, trace, parent))
        except Exception as exc:  # surfaced through the future, like a pool
            future.set_exception(exc)
        return future


class ThreadBackend(WorkerBackend):
    """Runs simulations on a thread pool (lazy, ``jobs`` workers)."""

    name = "thread"

    def __init__(
        self,
        jobs: int = 4,
        checkpoint_store: Optional[CheckpointStore] = None,
    ):
        super().__init__(checkpoint_store)
        if jobs < 1:
            raise ServiceError(f"ThreadBackend: jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: Optional[ThreadPoolExecutor] = None

    def submit(
        self,
        spec: RunSpec,
        trace: Optional[JobTrace] = None,
        parent: Optional[int] = None,
    ) -> "Future[RunResult]":
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-svc"
            )
        return self._pool.submit(self._execute, spec, trace, parent)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessPoolBackend(WorkerBackend):
    """Runs simulations on a lazy ``ProcessPoolExecutor``.

    The worker function is a pickled partial of ``run_spec`` with the
    checkpoint store bound — exactly the shape
    :meth:`~repro.experiments.runner.SweepRunner.prefetch` ships to its
    pool, so warm-start prefixes are shared on disk across workers.

    Worker-side spans are skipped on this backend: a
    :class:`~repro.tracing.JobTrace` holds a live emit callable and
    does not pickle.  The service-level ``execute`` span still bounds
    the whole remote execution, so traces stay causally complete —
    just without the in-worker breakdown.
    """

    name = "process"

    def __init__(
        self,
        jobs: Optional[int] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
    ):
        super().__init__(checkpoint_store)
        if jobs is None:
            from repro.experiments.runner import default_jobs

            jobs = default_jobs()
        if jobs < 1:
            raise ServiceError(
                f"ProcessPoolBackend: jobs must be >= 1, got {jobs}"
            )
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def submit(
        self,
        spec: RunSpec,
        trace: Optional[JobTrace] = None,
        parent: Optional[int] = None,
    ) -> "Future[RunResult]":
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        execute = functools.partial(
            execute_run_spec, checkpoint_store=self.checkpoint_store
        )
        return self._pool.submit(execute, spec)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Name -> constructor for the ``serve --backend`` CLI flag.
BACKENDS = {
    "inline": InlineBackend,
    "thread": ThreadBackend,
    "process": ProcessPoolBackend,
}


def make_backend(
    name: str,
    jobs: Optional[int] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> WorkerBackend:
    """Instantiate a registered backend by name."""
    if name not in BACKENDS:
        raise ServiceError(
            f"unknown backend {name!r}; known: {sorted(BACKENDS)}"
        )
    if name == "inline":
        return InlineBackend(checkpoint_store=checkpoint_store)
    if name == "thread":
        return ThreadBackend(
            jobs=jobs if jobs is not None else 4,
            checkpoint_store=checkpoint_store,
        )
    return ProcessPoolBackend(jobs=jobs, checkpoint_store=checkpoint_store)
