"""Workload models: SPEC CPU2006 / STREAM / NAS characteristics and mixes.

Data only: the access-stream generator that turns a benchmark into LLC
misses (:mod:`repro.workloads.generator`) is part of the simulation
kernel and is imported from its module.
"""

from repro.workloads.benchmark import BenchmarkSpec, MpkiClass
from repro.workloads.spec2006 import SPEC_BENCHMARKS, spec_benchmark
from repro.workloads.stream import STREAM
from repro.workloads.nas import NPB_UA
from repro.workloads.mixes import WORKLOAD_MIXES, workload_mix, mix_names

__all__ = [
    "BenchmarkSpec",
    "MpkiClass",
    "SPEC_BENCHMARKS",
    "spec_benchmark",
    "STREAM",
    "NPB_UA",
    "WORKLOAD_MIXES",
    "workload_mix",
    "mix_names",
]
