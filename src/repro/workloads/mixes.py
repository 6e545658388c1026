"""Multi-programmed workload mixes — Table 2 of the paper.

Each mix lists (benchmark, copies); a dual-core 1:4-consolidation run uses
8 tasks total.  ``scaled_mix`` rescales a mix to other task counts for the
Figure 15 sensitivity study, preserving the benchmark proportions.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.nas import NPB_UA
from repro.workloads.spec2006 import spec_benchmark
from repro.workloads.stream import STREAM


def _spec(name: str) -> BenchmarkSpec:
    if name == "stream":
        return STREAM
    if name == "npb_ua":
        return NPB_UA
    return spec_benchmark(name)


#: Table 2: workload name -> list of (benchmark, copies).  The MPKI-class
#: annotations in comments match the table.
WORKLOAD_MIXES: dict[str, list[tuple[str, int]]] = {
    "WL-1": [("mcf", 8)],                                   # H
    "WL-2": [("povray", 8)],                                # L
    "WL-3": [("h264ref", 8)],                               # L
    "WL-4": [("povray", 4), ("h264ref", 4)],                # L
    "WL-5": [("GemsFDTD", 8)],                              # M
    "WL-6": [("mcf", 4), ("povray", 4)],                    # H + L
    "WL-7": [("stream", 4), ("h264ref", 4)],                # M + L
    "WL-8": [("bwaves", 4), ("h264ref", 4)],                # H + L
    "WL-9": [("npb_ua", 4), ("povray", 4)],                 # M + L
    "WL-10": [("mcf", 4), ("bwaves", 2), ("povray", 2)],    # H + L
}


def mix_names() -> list[str]:
    """Mix names in Table 2 order."""
    return list(WORKLOAD_MIXES)


def workload_mix(name: str) -> list[BenchmarkSpec]:
    """Expand a named mix into one :class:`BenchmarkSpec` per task."""
    try:
        entries = WORKLOAD_MIXES[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r}; known: {mix_names()}"
        ) from None
    specs: list[BenchmarkSpec] = []
    for bench_name, copies in entries:
        specs.extend([_spec(bench_name)] * copies)
    return specs


def scaled_mix(name: str, num_tasks: int) -> list[BenchmarkSpec]:
    """A mix rescaled to *num_tasks* tasks, preserving proportions.

    Used by the Figure 15 sensitivity sweep (dual/quad cores at 1:2 and
    1:4 consolidation ratios -> 4/8/16 tasks).
    """
    if num_tasks <= 0:
        raise ConfigError("num_tasks must be positive")
    base = workload_mix(name)
    scaled: list[BenchmarkSpec] = []
    for i in range(num_tasks):
        scaled.append(base[(i * len(base)) // num_tasks])
    return scaled
