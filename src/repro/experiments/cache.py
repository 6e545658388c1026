"""Persistent, content-addressed cache of simulation results.

Layout (all JSON, one file per run)::

    <root>/v<SCHEMA>/<hh>/<content-hash>.json
        {"schema": <SCHEMA>, "spec": {...}, "result": {...}}

* ``<root>`` defaults to ``~/.cache/repro`` and is overridable with the
  ``REPRO_CACHE_DIR`` environment variable or the ``--cache-dir`` CLI
  flag.
* The ``v<SCHEMA>`` directory namespaces the serialization layout: any
  schema bump simply leaves old entries unread (and re-computable) —
  there is no in-place migration.
* Corruption tolerance: a truncated, garbled or stale entry, or one
  that is not a JSON object, is treated as a miss and recomputed; the
  cache never crashes a sweep.  Writes are atomic (temp file +
  ``os.replace``) so a killed run cannot leave a half-written entry
  behind.
* Eviction: none automatic.  Entries are small (a few KB); deleting the
  cache directory (or any subset of it) at any time is always safe.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.core.results import RESULT_SCHEMA, RunResult
from repro.core.runspec import SPEC_SCHEMA, RunSpec
from repro.errors import ReproError

#: Combined schema tag for cache entries; bumping either layout version
#: retires every existing entry.
CACHE_SCHEMA = f"{SPEC_SCHEMA}.{RESULT_SCHEMA}"

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def result_entry_payload(spec: RunSpec, result: RunResult) -> dict:
    """The canonical spec+result entry: the cache file layout, reused by
    sweep output directories so ``repro.obs diff DIR_A DIR_B`` can match
    entries from either origin by spec content hash."""
    return {
        "schema": CACHE_SCHEMA,
        "spec": spec.to_dict(),
        "result": result.to_dict(),
    }


def write_result_entry(
    directory: str | os.PathLike, spec: RunSpec, result: RunResult
) -> pathlib.Path:
    """Write one ``<content-hash>.json`` entry under *directory*."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{spec.content_hash()}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_entry_payload(spec, result), fh, indent=2)
        fh.write("\n")
    return path


def read_result_entry(path: str | os.PathLike) -> tuple[dict, dict]:
    """Read one entry back as ``(spec_dict, result_dict)``.

    Raises ``ValueError`` on anything that is not a spec+result entry
    (callers scanning a directory treat that as "skip this file").
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "spec" not in data or "result" not in data:
        raise ValueError(f"{path}: not a spec+result entry")
    if not isinstance(data["spec"], dict) or not isinstance(data["result"], dict):
        raise ValueError(f"{path}: malformed spec/result payload")
    return data["spec"], data["result"]


class ResultCache:
    """Content-addressed ``RunSpec -> RunResult`` store on disk."""

    def __init__(self, root: str | os.PathLike | None = None):
        base = pathlib.Path(root) if root is not None else default_cache_dir()
        self.root = base / f"v{CACHE_SCHEMA}"
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> pathlib.Path:
        """On-disk location of the entry for content-hash *key*."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> RunResult | None:
        """The cached result for *key*, or None (miss/corrupt/stale)."""
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("entry is not a JSON object")
            if data.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"stale schema {data.get('schema')!r}")
            result = RunResult.from_dict(data["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, ReproError):
            # Corrupt or stale entry: drop it and recompute.
            self.misses += 1
            self._discard(path)
            return None
        self.hits += 1
        return result

    def put(self, key: str, spec: RunSpec, result: RunResult) -> None:
        """Store *result* for *key* atomically; failures are non-fatal."""
        path = self.path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        payload = {
            "schema": CACHE_SCHEMA,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except OSError:
            # A read-only or full filesystem degrades to "no cache".
            self._discard(tmp)

    @staticmethod
    def _discard(path: pathlib.Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
