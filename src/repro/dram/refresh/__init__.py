"""Refresh schedulers: the paper's proposal and every evaluated baseline.

Policies are looked up by string key in :data:`REGISTRY`, the one table
of policy names; :func:`make_scheduler` instantiates them and
:func:`available_policies` lists the valid keys.  Unknown names raise
:class:`ConfigError` with a did-you-mean suggestion, and
:class:`~repro.config.scenarios.Scenario` validates its
``refresh_policy`` against this registry at construction.

This package holds only the names: each scheduler module (and its
base, :mod:`repro.dram.refresh.base`) is imported when
:func:`make_scheduler` first builds one of its schedulers, so resolving
and serving specs loads none of them.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.refresh.base import RefreshScheduler

#: Policy name -> its scheduler class, or the ``"module.Class"`` path
#: :func:`make_scheduler` imports it from.  Names are what
#: :class:`Scenario` stores and what the CLIs accept; register a custom
#: scheduler by assigning its class to a new name.
REGISTRY: dict[str, str | type[RefreshScheduler]] = {
    "no_refresh": "repro.dram.refresh.no_refresh.NoRefresh",
    "all_bank": "repro.dram.refresh.all_bank.AllBankRefresh",
    "per_bank": "repro.dram.refresh.per_bank_rr.PerBankRoundRobin",
    "same_bank": "repro.dram.refresh.same_bank.SameBankSequential",
    "ooo_per_bank": "repro.dram.refresh.ooo_per_bank.OutOfOrderPerBank",
    "adaptive": "repro.dram.refresh.adaptive.AdaptiveRefresh",
    "elastic": "repro.dram.refresh.elastic.ElasticRefresh",
    "pausing": "repro.dram.refresh.pausing.RefreshPausing",
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
    """Instantiate a refresh scheduler by registry name, importing its
    module on first use."""
    cls = REGISTRY[validate_policy(name)]
    if isinstance(cls, str):
        module, _, attr = cls.rpartition(".")
        cls = getattr(importlib.import_module(module), attr)
    return cls(**kwargs)


__all__ = [
    "REGISTRY",
    "available_policies",
    "validate_policy",
    "make_scheduler",
]
