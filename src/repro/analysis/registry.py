"""Rule registry: rules self-register at import via :func:`register`.

Importing :mod:`repro.analysis.rules` pulls in every rule module, whose
``@register`` decorations populate the table.  Codes are unique; a
duplicate registration is a programming error and fails loudly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.engine import Rule

_RULES: dict[str, "Rule"] = {}


def register(cls):
    """Class decorator: instantiate and register a :class:`Rule`."""
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if rule.code in _RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    _RULES[rule.code] = rule
    return cls


def all_rules() -> list["Rule"]:
    """Every registered rule, sorted by code (imports the rule modules)."""
    import repro.analysis.rules  # noqa: F401  (side effect: registration)

    return [_RULES[code] for code in sorted(_RULES)]
