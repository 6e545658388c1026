"""Workload models: SPEC CPU2006 / STREAM / NAS characteristics and mixes."""

from repro.workloads.benchmark import (
    BenchmarkSpec,
    MemAccess,
    MpkiClass,
    StatisticalWorkload,
)
from repro.workloads.spec2006 import SPEC_BENCHMARKS, spec_benchmark
from repro.workloads.stream import STREAM
from repro.workloads.nas import NPB_UA
from repro.workloads.mixes import WORKLOAD_MIXES, workload_mix, mix_names

__all__ = [
    "BenchmarkSpec",
    "MemAccess",
    "MpkiClass",
    "StatisticalWorkload",
    "SPEC_BENCHMARKS",
    "spec_benchmark",
    "STREAM",
    "NPB_UA",
    "WORKLOAD_MIXES",
    "workload_mix",
    "mix_names",
]
