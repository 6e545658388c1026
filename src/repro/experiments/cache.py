"""Persistent, content-addressed cache of simulation results.

Layout (one file per run, canonical JSON: sorted keys, no whitespace,
so the result comes first)::

    <root>/v<SCHEMA>/<hh>/<content-hash>.json
        {"result":{...},"schema":"<SCHEMA>","spec":{...}}

* ``<root>`` defaults to ``~/.cache/repro`` and is overridable with the
  ``REPRO_CACHE_DIR`` environment variable or the ``--cache-dir`` CLI
  flag.
* The ``v<SCHEMA>`` directory namespaces the serialization layout: any
  schema bump simply leaves old entries unread (and re-computable) —
  there is no in-place migration.
* Encoded once: a put splices the result's canonical text (the sweep
  service's memo holds it) and the spec's stored text into the entry,
  and a hit hands back the result's bytes exactly as stored, so the
  service serves them without encoding the result again.
* The hit rule: a lookup is by spec, not by key alone.  The entry's
  result is parsed and checked in full, and the text after it must be,
  byte for byte, this version's schema and the looked-up spec's
  canonical text.  Anything else is a miss, deleted and recomputed: a
  truncated, garbled or stale entry, one that is not a JSON object, one
  in any other layout (earlier versions wrote the schema first, with
  whitespace), and another spec's entry filed under this key.  The
  cache never crashes a sweep, and never serves one run another run's
  result.
* Writes are atomic (temp file + ``os.replace``) so a killed run cannot
  leave a half-written entry behind.
* Eviction: none automatic.  Entries are small (a few KB); deleting the
  cache directory (or any subset of it) at any time is always safe.

Two defaults live here, so that reading them needs neither the runner
nor the simulation kernel: the cache root (:func:`default_cache_dir`),
which every :class:`ResultCache` opened without a root uses, and the
worker count (:func:`default_jobs`), which ``SweepRunner`` and the
``run``, ``sweep``, ``serve`` and ``python -m repro.experiments``
commands read.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Iterable, NamedTuple

from repro.core.results import RESULT_SCHEMA, RunResult
from repro.core.runspec import SPEC_SCHEMA, RunSpec
from repro.errors import ConfigError, ReproError
from repro.serialize import CanonicalJSON, canonical_json, discard_file, write_atomic

#: Combined schema tag for cache entries; bumping either layout version
#: retires every existing entry.
CACHE_SCHEMA = f"{SPEC_SCHEMA}.{RESULT_SCHEMA}"

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable setting the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: An entry is ``_ENTRY_HEAD + result + _SPEC_HEAD + spec + "}"``: the
#: canonical JSON of ``{"result", "schema", "spec"}``, keys in sorted
#: order.  Anything else is an entry of another layout or version.
_ENTRY_HEAD = '{"result":'
_SPEC_HEAD = f',"schema":{json.dumps(CACHE_SCHEMA)},"spec":'

_decode_value = json.JSONDecoder().raw_decode


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def default_jobs() -> int:
    """``$REPRO_JOBS`` if set, else the CPU count.

    A set value is read as ``--jobs`` is: anything but a whole number of
    at least 1 raises :class:`~repro.errors.ConfigError` naming the
    variable.
    """
    env = os.environ.get(JOBS_ENV)
    if not env:
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError(
            f"{JOBS_ENV} must be a whole number of at least 1, got {env!r}"
        )
    return jobs


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


def write_result_entries(
    directory: str | os.PathLike, pairs: Iterable[tuple[RunSpec, RunResult]]
) -> None:
    """Write a sweep directory: one entry per ``(spec, result)`` pair.
    ``sweep --out``, ``submit --out`` and :func:`repro.api.sweep` all
    write through here."""
    for spec, result in pairs:
        write_result_entry(directory, spec, result)


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


class CacheHit(NamedTuple):
    """A cache hit: the checked result and its canonical JSON, the
    entry's own bytes."""

    result: RunResult
    text: CanonicalJSON


class ResultCache:
    """Content-addressed ``RunSpec -> RunResult`` store on disk."""

    def __init__(self, root: str | os.PathLike | None = None):
        base = pathlib.Path(root) if root is not None else default_cache_dir()
        self.root = base / f"v{CACHE_SCHEMA}"
        #: The root as a string ending in a separator, joined once: a
        #: lookup builds its entry's path with no ``pathlib`` call.
        self._prefix = os.path.join(self.root, "")
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> pathlib.Path:
        """On-disk location of the entry for content-hash *key*."""
        return pathlib.Path(self._file(key))

    def _file(self, key: str) -> str:
        return f"{self._prefix}{key[:2]}{os.sep}{key}.json"

    def get(self, spec: RunSpec) -> CacheHit | None:
        """The cached result for *spec* and its stored text, or None
        (miss/corrupt/stale/misfiled).

        The result's span is parsed and checked in full
        (``RunResult.from_dict``); the text after it must be exactly
        this version's schema and *spec*'s canonical text, compared byte
        for byte rather than parsed.  Any other entry under *spec*'s key
        is a miss, deleted and recomputed.
        """
        path = self._file(spec.content_hash())
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            if not text.startswith(_ENTRY_HEAD):
                raise ValueError("entry is not in the canonical layout")
            data, end = _decode_value(text, len(_ENTRY_HEAD))
            if text[end:] != _SPEC_HEAD + spec.canonical_json() + "}":
                raise ValueError("entry is not this spec's, in this layout")
            result = RunResult.from_dict(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, ReproError):
            # Corrupt or stale entry: drop it and recompute.
            self.misses += 1
            discard_file(path)
            return None
        self.hits += 1
        return CacheHit(result, CanonicalJSON(text[len(_ENTRY_HEAD) : end]))

    def put(
        self, key: str, spec: RunSpec, result: RunResult | CanonicalJSON
    ) -> None:
        """Store *result* for *key* atomically; failures are non-fatal.

        *result* may be given as its canonical JSON text, which is
        spliced into the entry as is, as is the spec's stored text.
        """
        text = (_ENTRY_HEAD + canonical_json(result)
                + _SPEC_HEAD + spec.canonical_json() + "}")
        try:
            write_atomic(self.path(key), text)
        except OSError:
            # A read-only or full filesystem degrades to "no cache".
            pass
