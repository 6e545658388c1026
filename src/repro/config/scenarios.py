"""The evaluated scenarios: named combinations of refresh policy, OS
scheduler and allocator (Section 6 of the paper, plus ablations).

Pure data, like the rest of :mod:`repro.config`: a
:class:`~repro.core.runspec.RunSpec` embeds its :class:`Scenario`, so
resolving, hashing and serving a spec needs these types but none of
the simulation kernel.  They remain importable from their historical homes, :mod:`repro.core.system`
(``Scenario``, ``SCENARIOS``, ``scenario``) and :mod:`repro.os.partition`
(``PartitionPolicy``).  Refresh policy names are validated against
:data:`repro.dram.refresh.REGISTRY`, the one table of policy names.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro import serialize
from repro.dram.refresh import validate_policy
from repro.errors import ConfigError


class PartitionPolicy(enum.Enum):
    """Bank-partitioning mode of the allocator (Algorithm 2); see
    :class:`~repro.os.partition.PartitioningAllocator`."""

    NONE = "none"
    SOFT = "soft"
    HARD = "hard"


@dataclass(frozen=True)
class Scenario:
    """A named combination of refresh policy, OS scheduler and allocator."""

    name: str
    refresh_policy: str
    refresh_aware: bool = False
    partition: PartitionPolicy = PartitionPolicy.NONE
    best_effort: bool = False

    def __post_init__(self):
        # Fail at construction, not at System build time: an unknown
        # policy name in a sweep definition surfaces immediately, with a
        # did-you-mean suggestion.
        validate_policy(self.refresh_policy)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "refresh_policy": self.refresh_policy,
            "refresh_aware": self.refresh_aware,
            "partition": self.partition.value,
            "best_effort": self.best_effort,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = dict(data)
        try:
            data["partition"] = PartitionPolicy(data["partition"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"Scenario: bad partition policy ({exc})") from None
        return serialize.dataclass_from_dict(cls, data)

    def canonical_json(self) -> serialize.CanonicalJSON:
        """Canonical JSON text of :meth:`to_dict`, encoded on the first
        call and stored on the instance (a spec's text splices it)."""
        return serialize.stored(self, "_canonical_json", serialize.canonical_json)

    def content_hash(self) -> str:
        """Content hash over the full scenario, not just its name — two
        differently configured scenarios that share a name never alias."""
        return serialize.text_hash(self.canonical_json())


#: The scenarios evaluated in the paper (Section 6) plus ablations.
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in [
        Scenario("no_refresh", "no_refresh"),
        Scenario("all_bank", "all_bank"),
        Scenario("per_bank", "per_bank"),
        Scenario("ooo_per_bank", "ooo_per_bank"),
        Scenario("adaptive", "adaptive"),
        Scenario("elastic", "elastic"),
        Scenario("pausing", "pausing"),
        # The full co-design: same-bank refresh + soft partitioning +
        # refresh-aware scheduling (Section 5.3).
        Scenario(
            "codesign",
            "same_bank",
            refresh_aware=True,
            partition=PartitionPolicy.SOFT,
        ),
        # Section 5.4.1 generalization for spilling footprints.
        Scenario(
            "codesign_best_effort",
            "same_bank",
            refresh_aware=True,
            partition=PartitionPolicy.SOFT,
            best_effort=True,
        ),
        # Hard partitioning variant (Section 5.2.1).
        Scenario(
            "codesign_hard",
            "same_bank",
            refresh_aware=True,
            partition=PartitionPolicy.HARD,
        ),
        # Ablation: proposed hardware schedule without the OS changes.
        Scenario("same_bank_hw_only", "same_bank"),
        # Ablation: partitioning + refresh-aware OS on round-robin per-bank
        # refresh is impossible (unpredictable); partitioning alone:
        Scenario(
            "partition_only",
            "per_bank",
            partition=PartitionPolicy.SOFT,
        ),
    ]
}


def scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
