"""Sweep-as-a-service: a cache-backed simulation server and its client.

The content-hashed :class:`~repro.core.runspec.RunSpec` (PR 1) is a
perfect dedup key — this package puts an async job API in front of
:func:`repro.core.simulator.run_spec` so that *one* simulation runs per
unique spec no matter how many clients ask:

:mod:`repro.service.backends`
    The :class:`WorkerBackend` execution seam — inline (tests), thread
    pool, and process pool (generalizing the
    :class:`~repro.experiments.runner.SweepRunner` fan-out).
:mod:`repro.service.server`
    :class:`SweepService` (job table, future-per-hash in-flight dedup,
    memo + disk-cache tiers, warm-start via the PR 6
    :class:`~repro.core.checkpoint.CheckpointStore`) and the asyncio
    socket front-end :class:`ServiceServer` speaking the line-oriented
    frame protocol of :mod:`repro.telemetry.wire`.
:mod:`repro.service.client`
    :class:`ServiceClient`, the blocking client used by
    ``python -m repro submit`` and :func:`repro.api.submit`.
:mod:`repro.service.metrics`
    :class:`ServiceMetrics` — per-tier hit counts and fixed-bucket
    latency histograms, with a Prometheus text exposition served both
    in-band (the ``metrics`` op) and over HTTP (``--metrics-port``).

See ``docs/SERVICE.md`` for the protocol and dedup semantics, and
``docs/OBSERVABILITY.md`` §8 for tracing the serving path.
"""

from repro.service.backends import (
    BACKENDS,
    InlineBackend,
    ProcessPoolBackend,
    ThreadBackend,
    WorkerBackend,
    make_backend,
)
from repro.service.client import ServiceClient, SweepOutcome, backoff_schedule
from repro.service.metrics import ServiceMetrics, start_metrics_http
from repro.service.server import ServiceServer, SweepService, serve_in_thread

__all__ = [
    "BACKENDS",
    "InlineBackend",
    "ProcessPoolBackend",
    "ServiceClient",
    "ServiceMetrics",
    "ServiceServer",
    "SweepOutcome",
    "SweepService",
    "ThreadBackend",
    "WorkerBackend",
    "backoff_schedule",
    "make_backend",
    "serve_in_thread",
    "start_metrics_http",
]
