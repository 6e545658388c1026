"""Checkpoint persistence: snapshots of a paused simulation on disk.

A checkpoint file carries everything needed to continue a run in a fresh
process::

    {"schema": <CHECKPOINT_SCHEMA>.<SPEC_SCHEMA>,
     "spec": <RunSpec.to_dict()>,       # the run being continued
     "cycle": <barrier cycle>,
     "state": <System.snapshot_state()>}

:func:`save_checkpoint`/:func:`load_checkpoint` handle single files (the
CLI's ``--checkpoint-dir``/``--resume`` flow); :class:`CheckpointStore`
is the content-addressed variant keyed by ``(prefix-spec hash, cycle)``
that :class:`~repro.experiments.runner.SweepRunner` uses to share one
warm-up checkpoint across every scenario of a warm-started sweep.

Writes are atomic (temp file + ``os.replace``) and reads are
corruption-tolerant, following :class:`~repro.experiments.cache.ResultCache`.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.core.runspec import SPEC_SCHEMA, RunSpec
from repro.errors import ConfigError, ReproError

#: Version tag for the snapshot payload layout.  Combined with
#: SPEC_SCHEMA so either bump retires existing checkpoints.
CHECKPOINT_SCHEMA = 1

SCHEMA_TAG = f"{CHECKPOINT_SCHEMA}.{SPEC_SCHEMA}"


def checkpoint_payload(spec: RunSpec, cycle: int, state: dict) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "spec": spec.to_dict(),
        "cycle": int(cycle),
        "state": state,
    }


def save_checkpoint(
    path: str | os.PathLike, spec: RunSpec, cycle: int, state: dict
) -> pathlib.Path:
    """Atomically write one checkpoint file; returns its path."""
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(checkpoint_payload(spec, cycle, state), fh)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return path


def load_checkpoint(path: str | os.PathLike) -> tuple[RunSpec, int, dict]:
    """Read a checkpoint file back as ``(spec, cycle, state)``.

    Raises :class:`ConfigError` on a missing, truncated or stale file —
    a resume must fail loudly, unlike a cache miss.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_TAG:
        raise ConfigError(
            f"checkpoint {path}: schema "
            f"{data.get('schema') if isinstance(data, dict) else '?'!r} "
            f"does not match {SCHEMA_TAG!r} (re-create it)"
        )
    try:
        spec = RunSpec.from_dict(data["spec"])
        cycle = int(data["cycle"])
        state = data["state"]
    except (KeyError, TypeError, ReproError) as exc:
        raise ConfigError(f"checkpoint {path}: malformed payload ({exc})") from None
    if not isinstance(state, dict):
        raise ConfigError(f"checkpoint {path}: state is not a dict")
    return spec, cycle, state


class CheckpointStore:
    """Content-addressed checkpoint store keyed by (spec hash, cycle).

    Layout mirrors the result cache::

        <root>/ckpt-v<SCHEMA_TAG>/<hh>/<spec-hash>-<cycle>.json

    ``get`` is corruption-tolerant (a bad entry is a miss, dropped and
    recomputed); ``put`` failures degrade to "no store".  Instances hold
    only a path, so they pickle across the sweep worker pool.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            from repro.experiments.cache import default_cache_dir

            root = default_cache_dir()
        self.root = pathlib.Path(root) / f"ckpt-v{SCHEMA_TAG}"
        self.hits = 0
        self.misses = 0

    def path(self, key: str, cycle: int) -> pathlib.Path:
        return self.root / key[:2] / f"{key}-{int(cycle)}.json"

    def get(self, key: str, cycle: int) -> dict | None:
        """The stored snapshot state for ``(key, cycle)``, or None."""
        path = self.path(key, cycle)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("entry is not a JSON object")
            if data.get("schema") != SCHEMA_TAG:
                raise ValueError(f"stale schema {data.get('schema')!r}")
            state = data["state"]
            if not isinstance(state, dict):
                raise ValueError("state is not a dict")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            self._discard(path)
            return None
        self.hits += 1
        return state

    def put(self, key: str, spec: RunSpec, cycle: int, state: dict) -> None:
        """Store a snapshot atomically; failures are non-fatal."""
        try:
            save_checkpoint(self.path(key, cycle), spec, cycle, state)
        except OSError:
            pass

    @staticmethod
    def _discard(path: pathlib.Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
