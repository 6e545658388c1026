"""Refresh schedulers: the paper's proposal and every evaluated baseline.

Policies are looked up by string key in :data:`REGISTRY`;
:func:`make_scheduler` instantiates them and :func:`available_policies`
lists the valid keys.  Unknown names raise :class:`ConfigError` with a
did-you-mean suggestion, and :class:`~repro.config.scenarios.Scenario`
validates its ``refresh_policy`` against this registry at construction.
"""

from repro.dram.refresh.base import RefreshScheduler, RefreshStats
from repro.dram.refresh.no_refresh import NoRefresh
from repro.dram.refresh.all_bank import AllBankRefresh
from repro.dram.refresh.per_bank_rr import PerBankRoundRobin
from repro.dram.refresh.same_bank import SameBankSequential
from repro.dram.refresh.ooo_per_bank import OutOfOrderPerBank
from repro.dram.refresh.adaptive import AdaptiveRefresh
from repro.dram.refresh.elastic import ElasticRefresh
from repro.dram.refresh.pausing import RefreshPausing
from repro.errors import ConfigError

#: Policy name -> scheduler class.  Names are what :class:`Scenario`
#: stores and what the CLIs accept.
REGISTRY: dict[str, type[RefreshScheduler]] = {
    "no_refresh": NoRefresh,
    "all_bank": AllBankRefresh,
    "per_bank": PerBankRoundRobin,
    "same_bank": SameBankSequential,
    "ooo_per_bank": OutOfOrderPerBank,
    "adaptive": AdaptiveRefresh,
    "elastic": ElasticRefresh,
    "pausing": RefreshPausing,
}


def available_policies() -> list[str]:
    """Registered refresh policy names, sorted."""
    return sorted(REGISTRY)


def validate_policy(name: str) -> str:
    """Return *name* if registered, else raise :class:`ConfigError` with a
    did-you-mean suggestion."""
    if name in REGISTRY:
        return name
    from difflib import get_close_matches

    hint = ""
    close = get_close_matches(name, REGISTRY, n=1)
    if close:
        hint = f" — did you mean {close[0]!r}?"
    raise ConfigError(
        f"unknown refresh policy {name!r}{hint} "
        f"(known: {', '.join(available_policies())})"
    )


def make_scheduler(name: str, **kwargs) -> RefreshScheduler:
    """Instantiate a refresh scheduler by registry name."""
    return REGISTRY[validate_policy(name)](**kwargs)


__all__ = [
    "RefreshScheduler",
    "RefreshStats",
    "NoRefresh",
    "AllBankRefresh",
    "PerBankRoundRobin",
    "SameBankSequential",
    "OutOfOrderPerBank",
    "AdaptiveRefresh",
    "ElasticRefresh",
    "RefreshPausing",
    "REGISTRY",
    "available_policies",
    "validate_policy",
    "make_scheduler",
]
