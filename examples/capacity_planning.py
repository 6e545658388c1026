#!/usr/bin/env python3
"""Capacity planning with the bank-aware allocator (Figure 5 style).

Given a set of applications, checks for each DRAM density whether their
footprints fit inside a bank partition (and how much spills), using the
real Algorithm 2 allocator — the feasibility question of Section 3.3.
"""

from repro.config.system_configs import default_system_config
from repro.dram.address import AddressMapping
from repro.experiments.report import format_table
from repro.os.codesign import assign_bank_vectors
from repro.os.page import PhysicalMemory
from repro.os.partition import PartitioningAllocator, PartitionPolicy
from repro.os.task import Task
from repro.workloads.mixes import workload_mix


def main() -> None:
    workload = "WL-10"  # mcf(4), bwaves(2), povray(2): 8.7GB total
    specs = workload_mix(workload)
    rows = []
    for density in (8, 16, 24, 32):
        config = default_system_config(density_gbit=density)
        mapping = AddressMapping(config.organization, config.rows_per_bank_sim)
        memory = PhysicalMemory(mapping)
        allocator = PartitioningAllocator(memory, PartitionPolicy.SOFT)
        vectors = assign_bank_vectors(len(specs), 2, config.organization)

        total_pages = spilled = 0
        for spec, banks in zip(specs, vectors):
            task = Task(spec.name, workload=None, possible_banks=banks)
            pages = max(
                1, config.scale_footprint(spec.footprint_bytes) // mapping.page_bytes
            )
            allocator.alloc_footprint(task, pages)
            total_pages += len(task.frames)
            spilled += sum(
                count
                for bank, count in task.pages_per_bank.items()
                if bank not in banks
            )
        rows.append(
            [
                f"{density}Gb",
                mapping.total_frames,
                total_pages,
                spilled,
                f"{spilled / total_pages:.1%}" if total_pages else "-",
            ]
        )
    print(
        format_table(
            ["density", "capacity (pages)", "allocated", "spilled", "spill %"],
            rows,
            title=f"Partition capacity check for {workload} (6 banks/rank/task)",
        )
    )
    print("\nSpilled pages make the refresh-aware scheduler fall back to")
    print("best-effort picks (Section 5.4.1) — see codesign_best_effort.")


if __name__ == "__main__":
    main()
