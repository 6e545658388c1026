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
:func:`encode_canonical` / :func:`canonical_array`
    The canonical encoder itself, which splices top-level values that
    are already :class:`CanonicalJSON` text instead of encoding them
    again, and the array of such texts.
:func:`stored` / :func:`validated`
    A value computed once per frozen instance and stored on it: the
    canonical text and content hash of a spec and of the components it
    is spliced from, and a passed ``validate()`` of the config and task
    specs a sweep's cells share.
:func:`text_hash` / :func:`content_hash`
    Stable hex digest of canonical JSON text (every content hash goes
    through :func:`text_hash`) and of a value's canonical JSON; used as
    the memo key and the on-disk cache filename.
:func:`dataclass_from_dict`
    Strict flat-dataclass reconstruction (unknown keys are a
    :class:`~repro.errors.ConfigError`, so stale cache entries fail
    loudly enough to be recomputed rather than mis-parsed).
:func:`write_atomic` / :func:`discard_file`
    How a result-cache entry or a checkpoint file reaches the disk (a
    temp file beside it, then ``os.replace``) and how a bad one is
    dropped.

Each value is walked once on the way to its hash: a ``to_dict`` returns
JSON-able primitives (built with :func:`to_jsonable` where a field may
hold anything else), so its output is used as is, never walked again.
Text that is already canonical is never re-encoded: a result encoded
once is spliced, as is, into every frame and cache entry that carries
it, a spec's text into every cache entry (a request frame carries it as
a JSON string), and a spec's own text is spliced from the stored texts
of its task list, scenario and config.  :func:`canonical_json`, the
generic walk, stays the reference those spliced texts must equal.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import pathlib
import threading
from json.encoder import encode_basestring_ascii

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


#: How :func:`encode_canonical`'s splice path writes a top-level value
#: of each exact type without the encoder, as ``json.dumps`` would.  A
#: float, a container or a subclass of ``str`` or ``int`` goes through
#: the encoder.
_WRITE = {
    CanonicalJSON: lambda text: text,
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


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
    spliced in as the JSON it already is.  The splice path writes the
    keys and the string, whole-number, boolean and null values itself
    (:data:`_WRITE`), so the encoder sees only floats and containers.
    Raises :class:`ConfigError` for a value ``json`` cannot encode and,
    on the splice path, for a key that is not a string.
    """
    if isinstance(data, CanonicalJSON):
        return data
    try:
        if isinstance(data, dict) and any(
            isinstance(v, CanonicalJSON) for v in data.values()
        ):
            # One join, so each spliced text is copied once (an f-string
            # would copy a str subclass through str.__format__ first).
            parts = []
            for key, v in sorted(data.items()):
                parts += (",", encode_basestring_ascii(key), ":",
                          _WRITE.get(type(v), _encode)(v))
            parts[0] = "{"
            parts.append("}")
            return "".join(parts)
        return _encode(data)
    except TypeError as exc:
        # A to_dict that copies a field as is passes a stray value on.
        raise ConfigError(f"value is not JSON-serializable: {exc}") from None


def canonical_array(texts) -> CanonicalJSON:
    """The canonical JSON array of the canonical JSON *texts*."""
    return CanonicalJSON("[" + ",".join(texts) + "]")


def canonical_json(value) -> CanonicalJSON:
    """Deterministic JSON text for *value* (the content-hash pre-image),
    by the generic walk :func:`to_jsonable`."""
    return CanonicalJSON(encode_canonical(to_jsonable(value)))


def stored(obj, name: str, compute):
    """``compute(obj)``, computed on the first call and stored on *obj*
    under attribute *name*.

    For frozen, deeply immutable instances only, whose stored value can
    never go stale: ``dataclasses.replace`` and ``from_dict`` build new
    instances, which compute their own, and a pickled or copied
    instance carries its stored values along.
    """
    value = obj.__dict__.get(name)
    if value is None:
        value = compute(obj)
        object.__setattr__(obj, name, value)
    return value


def validated(obj) -> None:
    """``obj.validate()``, once per frozen, deeply immutable *obj*: a
    pass is :func:`stored` on the instance, so the config and task specs
    that a sweep's cells share are checked once, not once per cell.  A
    failed check stores nothing and raises again on every call."""
    stored(obj, "_validated", _passes)


def _passes(obj) -> bool:
    obj.validate()
    return True


def text_hash(text: str) -> str:
    """Stable content hash of canonical JSON *text*: every content hash,
    a spec's own and a received payload's, is computed here."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:HASH_LEN]


def content_hash(value) -> str:
    """Stable content hash of *value*'s canonical JSON form."""
    return text_hash(canonical_json(value))


def dataclass_from_dict(cls, data: dict):
    """Reconstruct a flat dataclass from *data*, rejecting unknown keys.

    The instance is built first; the key set is only diffed against the
    field table when construction raises ``TypeError``, so an unknown
    field is a :class:`ConfigError` (with or without a missing one) and
    a missing field alone stays a ``TypeError``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__}: expected a dict, got {type(data).__name__}")
    try:
        return cls(**data)
    except TypeError:
        unknown = set(data).difference(field_names(cls))
        if unknown:
            raise ConfigError(
                f"{cls.__name__}: unknown field(s) {sorted(unknown)}"
            ) from None
        raise


def write_atomic(path: pathlib.Path, text: str) -> None:
    """Write *text* to *path*, creating its directory, through a temp
    file beside it and ``os.replace``: a reader sees the old file or the
    whole new one, never a part.  The temp file is named for the
    process and the thread, so concurrent writers of one path never
    share it.  On ``OSError`` the temp file is removed and the error
    raised; each caller decides whether a failed write matters."""
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        discard_file(tmp)
        raise


def discard_file(path: str | os.PathLike) -> None:
    """Remove *path* if it can be removed; a missing or undeletable file
    is no error."""
    try:
        os.remove(path)
    except OSError:
        pass
