"""Canonical JSON serialization and content hashing.

Every configuration and result object in the run pipeline round-trips
through plain JSON-able dicts (``to_dict`` / ``from_dict``).  This module
provides the shared machinery:

:func:`to_jsonable`
    Recursively convert a value to JSON-able primitives, preferring an
    object's own ``to_dict``.  Raises :class:`~repro.errors.ConfigError`
    for values that cannot be represented (the clear failure the sweep
    cache needs instead of a bare ``TypeError`` deep inside ``json``).
:func:`field_names` / :func:`dataclass_to_dict`
    The per-class field table and the ``to_dict`` body shared by the
    flat config dataclasses.
:func:`canonical_json`
    Deterministic JSON text (sorted keys, no whitespace) — the hashing
    pre-image, marked as :class:`CanonicalJSON`.
:func:`encode_canonical`
    The canonical encoder itself; it splices top-level values that are
    already :class:`CanonicalJSON` text instead of encoding them again.
:func:`text_hash` / :func:`content_hash`
    Stable hex digest of canonical JSON text (every content hash goes
    through :func:`text_hash`) and of a value's canonical JSON; used as
    the memo key and the on-disk cache filename.
:func:`dataclass_from_dict`
    Strict flat-dataclass reconstruction (unknown keys are a
    :class:`~repro.errors.ConfigError`, so stale cache entries fail
    loudly enough to be recomputed rather than mis-parsed).

Each value is walked once on the way to its hash: a ``to_dict`` returns
JSON-able primitives (built with :func:`to_jsonable` where a field may
hold anything else), so its output is used as is, never walked again.
Text that is already canonical is never re-encoded: a spec or result
encoded once is spliced, as is, into every frame that carries it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json

from repro.errors import ConfigError

#: Length of the truncated sha256 hex digest used as a content key.  64
#: bits of collision resistance is ample for sweep-cache populations.
HASH_LEN = 16

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class CanonicalJSON(str):
    """Text that is already canonical JSON (sorted keys, no whitespace).

    :func:`encode_canonical` splices such a value as is where a plain
    ``str`` would be encoded as a JSON string.
    """

    __slots__ = ()


@functools.cache
def field_names(cls) -> tuple[str, ...]:
    """The field table of dataclass *cls*: its field names in
    declaration order, scanned once per class."""
    return tuple(f.name for f in dataclasses.fields(cls))


def dataclass_to_dict(obj) -> dict:
    """Field-by-field JSON-able view of a dataclass, in declaration
    order."""
    return {name: to_jsonable(getattr(obj, name)) for name in field_names(type(obj))}


def to_jsonable(value):
    """Convert *value* to JSON-able primitives (dict/list/str/num/bool/None).

    Objects exposing ``to_dict`` serialize themselves (and return
    JSON-able primitives); enums serialize to their ``value``; other
    dataclasses are converted field-by-field.  Anything else raises
    :class:`ConfigError`.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, v in value.items():
            if not isinstance(key, str):
                raise ConfigError(
                    f"cannot serialize dict key {key!r}: keys must be strings"
                )
            out[key] = to_jsonable(v)
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclass_to_dict(value)
    raise ConfigError(
        f"value {value!r} of type {type(value).__name__} is not "
        "JSON-serializable; config overrides must be primitives, enums, "
        "or dataclasses with to_dict()"
    )


def encode_canonical(data) -> str:
    """Canonical JSON text of JSON-able *data*.

    Byte-identical to ``json.dumps(data, sort_keys=True,
    separators=(",", ":"))``, except that a :class:`CanonicalJSON`
    value, given as *data* itself or as a top-level value of a dict, is
    spliced in as the JSON it already is.
    """
    if isinstance(data, CanonicalJSON):
        return data
    if isinstance(data, dict) and any(
        isinstance(v, CanonicalJSON) for v in data.values()
    ):
        return "{" + ",".join(
            f"{_encode(key)}:{v if isinstance(v, CanonicalJSON) else _encode(v)}"
            for key, v in sorted(data.items())
        ) + "}"
    return _encode(data)


def canonical_json(value) -> CanonicalJSON:
    """Deterministic JSON text for *value* (the content-hash pre-image)."""
    data = to_jsonable(value)
    try:
        return CanonicalJSON(encode_canonical(data))
    except TypeError as exc:
        # A to_dict that copies a field as is passes a stray value on.
        raise ConfigError(f"value is not JSON-serializable: {exc}") from None


def text_hash(text: str) -> str:
    """Stable content hash of canonical JSON *text*: every content hash,
    a spec's own and a received payload's, is computed here."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:HASH_LEN]


def content_hash(value) -> str:
    """Stable content hash of *value*'s canonical JSON form."""
    return text_hash(canonical_json(value))


def dataclass_from_dict(cls, data: dict):
    """Reconstruct a flat dataclass from *data*, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__}: expected a dict, got {type(data).__name__}")
    unknown = set(data).difference(field_names(cls))
    if unknown:
        raise ConfigError(
            f"{cls.__name__}: unknown field(s) {sorted(unknown)}"
        )
    return cls(**data)
