"""Hierarchical metrics registry with dotted names and glob queries.

A :class:`MetricsRegistry` maps dotted *prefixes* to metric sources; a
source is anything implementing the :meth:`snapshot` protocol (see
:mod:`repro.telemetry.stats`), a callable returning a value or dict, or
a plain dict.  :meth:`MetricsRegistry.snapshot` reads every source
*live* and flattens nested dicts into fully-dotted metric names::

    dram.ch0.rk0.bank3.row_hits   -> 172
    os.task.7.quanta              -> 12
    dram.refresh.per_bank_commands.3 -> 64

Queries use ``fnmatch`` glob patterns (``*`` does not cross dots is NOT
enforced — patterns match the full dotted name, so ``dram.*.row_hits``
and ``os.task.*`` both work).  :meth:`to_json` / :meth:`write` export a
sorted, deterministic JSON document.
"""

from __future__ import annotations

import json
from fnmatch import fnmatchcase

from repro.errors import ConfigError


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}", sub, out)
    else:
        out[prefix] = value


class MetricsRegistry:
    """Dotted-name metric tree over live stats objects."""

    def __init__(self):
        self._sources: dict[str, object] = {}

    # -- registration ---------------------------------------------------------

    def register(self, prefix: str, source) -> None:
        """Attach *source* under *prefix* (e.g. ``dram.ch0.rk0.bank3``)."""
        if not prefix or prefix != prefix.strip("."):
            raise ConfigError(f"invalid metric prefix {prefix!r}")
        if prefix in self._sources:
            raise ConfigError(f"metric prefix {prefix!r} already registered")
        self._sources[prefix] = source

    def prefixes(self) -> list[str]:
        return sorted(self._sources)

    # -- reading --------------------------------------------------------------

    def _read(self, source) -> object:
        if hasattr(source, "snapshot"):
            return source.snapshot()
        if callable(source):
            return source()
        return source

    def snapshot(self) -> dict:
        """Flattened ``dotted.name -> value`` map, sorted by name."""
        out: dict = {}
        for prefix in sorted(self._sources):
            _flatten(prefix, self._read(self._sources[prefix]), out)
        return dict(sorted(out.items()))

    def query(self, pattern: str) -> dict:
        """Metrics whose dotted name matches the glob *pattern*."""
        return {
            name: value
            for name, value in self.snapshot().items()
            if fnmatchcase(name, pattern)
        }

    def value(self, name: str):
        """One metric by exact dotted name (:class:`ConfigError` if absent)."""
        snap = self.snapshot()
        try:
            return snap[name]
        except KeyError:
            raise ConfigError(f"unknown metric {name!r}") from None

    # -- export ---------------------------------------------------------------

    def to_json(self) -> str:
        """Deterministic JSON export of the full flattened snapshot."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=1)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())
            f.write("\n")

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._sources)} sources)"
