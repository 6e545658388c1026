"""Reusable performance kernels for the simulator's hot paths.

Each kernel is a deterministic workload over one hot component (engine,
core, workload generator, controller, refresh scheduler, address decode,
buddy and partition allocators, system build, one WL-6 quantum) returning
an operation count; :mod:`repro.bench.kernels` also provides the timing
wrapper.  ``scripts/bench_report.py`` runs them for the
``BENCH_<date>.json`` perf-trajectory reports recorded by CI;
:mod:`repro.bench.signature` holds the one determinism signature that
``bench_report.py`` and ``scripts/bench_trend.py`` both gate on.

This package sits outside the simulator's pure packages: it is allowed
to read the wall clock, but everything it *measures* stays seeded and
deterministic — run-to-run variation is wall time only, never operation
or event counts.
"""

from repro.bench.kernels import (
    KERNELS,
    KernelResult,
    controller_cost_models,
    run_kernel,
    service_tier_histograms,
    wl6_codesign_end_to_end,
    workload_stream_digests,
)
from repro.bench.signature import COST_MODEL_PINNED_FIELDS, determinism_signature

__all__ = [
    "COST_MODEL_PINNED_FIELDS",
    "KERNELS",
    "KernelResult",
    "controller_cost_models",
    "determinism_signature",
    "run_kernel",
    "service_tier_histograms",
    "wl6_codesign_end_to_end",
    "workload_stream_digests",
]
