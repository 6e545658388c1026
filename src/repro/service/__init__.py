"""Sweep-as-a-service: a cache-backed simulation server and its client.

The content-hashed :class:`~repro.core.runspec.RunSpec` (PR 1) is a
perfect dedup key — this package puts an async job API in front of
:func:`repro.core.simulator.run_spec` so that *one* simulation runs per
unique spec no matter how many clients ask:

:mod:`repro.service.server`
    :class:`SweepService` (job table, future-per-hash in-flight dedup,
    memo + disk-cache tiers, warm-start via the PR 6
    :class:`~repro.core.checkpoint.CheckpointStore`, and execution on
    one worker thread or, with ``jobs > 1``, a process pool) and the
    asyncio socket front-end :class:`ServiceServer` speaking the
    line-oriented frame protocol of :mod:`repro.telemetry.wire`.
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

from repro import lazy_exports

#: Each public name -> the module that defines it, imported on first
#: access: a client process (``from repro.service.client import
#: ServiceClient``) loads neither the server nor ``asyncio``.
_EXPORTS = {
    "ServiceClient": "repro.service.client",
    "ServiceMetrics": "repro.service.metrics",
    "ServiceServer": "repro.service.server",
    "SweepOutcome": "repro.service.client",
    "SweepService": "repro.service.server",
    "backoff_schedule": "repro.service.client",
    "serve_in_thread": "repro.service.server",
    "start_metrics_http": "repro.service.metrics",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
