"""Co-design glue: bank-vector assignment and schedulability checks.

This is the policy layer that makes Algorithms 1-3 compose (paper
Section 5.3): given the task count, core count and bank geometry it
computes each task's ``possible_banks_vector`` such that

* every task keeps ``banks_per_rank - excluded`` banks per rank (6 of 8 at
  the paper's 1:4 dual-core sweet spot, 4 of 8 at 1:2);
* the tasks on each core exclude *disjoint sliding windows* of banks whose
  union covers every bank — so whichever bank the same-bank schedule is
  refreshing, **every core's runqueue holds a task with no data in it**.
"""

from __future__ import annotations

from repro.config.dram_configs import DramOrganization
from repro.errors import ConfigError


def default_banks_per_task(
    num_tasks: int, num_cores: int, banks_per_rank: int = 8
) -> int:
    """The paper's partition sizing: tasks on one core must collectively
    exclude all banks, so each excludes ``banks_per_rank / tasks_per_core``
    — leaving 6 allowed banks at 1:4 consolidation and 4 at 1:2
    (Sections 6.2 and 6.6)."""
    if num_tasks < num_cores:
        raise ConfigError("need at least one task per core")
    tasks_per_core = num_tasks // num_cores
    if tasks_per_core < 2:
        raise ConfigError(
            "co-design partitioning needs >= 2 tasks per core; with fewer, "
            "a task would need 0 allowed banks to cover all refresh stretches"
        )
    excluded = max(1, banks_per_rank // tasks_per_core)
    return banks_per_rank - excluded


def assign_bank_vectors(
    num_tasks: int,
    num_cores: int,
    organization: DramOrganization,
    banks_per_task: int | None = None,
) -> list[frozenset[int]]:
    """Per-task ``possible_banks_vector`` as flat bank indices.

    Task *t* runs on core ``t % num_cores`` (matching the scheduler's
    round-robin admission) and is the ``j = t // num_cores``-th task of
    that core; it excludes the per-rank bank window
    ``[j * stride, j * stride + excluded)`` in **every** rank and channel,
    so the exclusion windows of one core's tasks tile the whole rank.
    """
    organization.validate()
    banks_per_rank = organization.banks_per_rank
    if banks_per_task is None:
        banks_per_task = default_banks_per_task(
            num_tasks, num_cores, banks_per_rank
        )
    if not 1 <= banks_per_task < banks_per_rank:
        raise ConfigError(
            f"banks_per_task must be in [1, {banks_per_rank}), got {banks_per_task}"
        )
    excluded = banks_per_rank - banks_per_task
    tasks_per_core = -(-num_tasks // num_cores)  # ceil
    vectors: list[frozenset[int]] = []
    for t in range(num_tasks):
        j = t // num_cores
        # Spread window starts evenly so they tile the rank even when
        # tasks_per_core * excluded != banks_per_rank.
        start = (j * banks_per_rank // tasks_per_core) % banks_per_rank
        excluded_banks = {(start + k) % banks_per_rank for k in range(excluded)}
        allowed = frozenset(
            organization.banks_per_rank * (channel * organization.ranks_per_channel + rank)
            + bank
            for channel in range(organization.channels)
            for rank in range(organization.ranks_per_channel)
            for bank in range(banks_per_rank)
            if bank not in excluded_banks
        )
        vectors.append(allowed)
    return vectors


def schedulability_report(
    vectors: list[frozenset[int]],
    num_cores: int,
    organization: DramOrganization,
) -> dict[int, list[int]]:
    """For every flat bank, which cores have >= 1 task that excludes it.

    A fully schedulable assignment maps every bank to every core — the
    refresh-aware scheduler then never needs its fairness fallback (absent
    sleep states, priorities, or footprint spill).
    """
    report: dict[int, list[int]] = {}
    for flat in range(organization.total_banks):
        cores_with_clean = sorted(
            {
                t % num_cores
                for t, allowed in enumerate(vectors)
                if flat not in allowed
            }
        )
        report[flat] = cores_with_clean
    return report


def is_fully_schedulable(
    vectors: list[frozenset[int]],
    num_cores: int,
    organization: DramOrganization,
) -> bool:
    report = schedulability_report(vectors, num_cores, organization)
    return all(len(cores) == num_cores for cores in report.values())
