"""Figure 5: feasibility of bank-partitioning from a capacity standpoint.

For each chip density, allocate each SPEC benchmark's full footprint with a
modified allocator that prefers bank 0 and falls back to other banks when
bank 0 fills (exactly the kernel modification described in Section 3.3),
then report the fraction of the footprint that landed in bank 0.

Paper's observation: at 8 Gb, on average 68% of the footprint fits in a
single bank, rising with density.
"""

from __future__ import annotations

from repro.config.system_configs import default_system_config
from repro.dram.address import AddressMapping
from repro.os.page import PhysicalMemory
from repro.os.partition import PartitioningAllocator, PartitionPolicy
from repro.os.task import Task
from repro.workloads.nas import NPB_UA
from repro.workloads.spec2006 import SPEC_BENCHMARKS
from repro.workloads.stream import STREAM

DENSITIES = (8, 16, 24, 32)


def _all_benchmarks():
    yield from SPEC_BENCHMARKS.values()
    yield STREAM
    yield NPB_UA


def rows(capacity_scale: int = 1024) -> list[tuple[tuple, tuple]]:
    """``((density, benchmark, footprint pages), (fraction on bank 0,))``
    per density and benchmark."""
    out = []
    for density in DENSITIES:
        config = default_system_config(
            density_gbit=density, capacity_scale=capacity_scale
        )
        for spec in _all_benchmarks():
            mapping = AddressMapping(config.organization, config.rows_per_bank_sim)
            memory = PhysicalMemory(mapping)
            allocator = PartitioningAllocator(memory, PartitionPolicy.SOFT)
            task = Task(
                spec.name, workload=None, possible_banks=frozenset({0}), task_id=0
            )
            pages = max(
                1, config.scale_footprint(spec.footprint_bytes) // mapping.page_bytes
            )
            allocated = allocator.alloc_footprint(task, pages)
            on_bank0 = task.pages_per_bank.get(0, 0)
            out.append(
                ((f"{density}Gb", spec.name, pages),
                 (on_bank0 / allocated if allocated else 0.0,))
            )
    return out
