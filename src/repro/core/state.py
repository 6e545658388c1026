"""Declarative checkpoint state: one table per class drives both directions.

A :class:`Stateful` class lists ``(attribute, codec)`` rows in payload
order in ``STATE`` (a third element names a payload key that differs from
the attribute) and what a checkpoint leaves out on purpose in ``DERIVED``.
Tables union along the MRO, base rows first.  Components restore in
place; references resolve through the one ``refs`` argument (kind -> id
table).  Restoring is strict: a missing key, a list of the wrong length
or a value of a JSON type its codec rejects raises
:class:`~repro.errors.CheckpointError` naming the path; only
:func:`or_default` rows may be absent.  docs/ARCHITECTURE.md has the
whole picture.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from collections import OrderedDict
from contextlib import contextmanager
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, NamedTuple

from repro.errors import CheckpointError, ConfigError


class Codec(NamedTuple):
    """``encode(value)`` gives JSON-able data; ``decode(data, refs,
    current)`` gives the value to assign (*current* is the live value, for
    codecs that restore in place) or raises :class:`CheckpointError`."""

    encode: Callable
    decode: Callable
    keeps_default: bool = False


def field(state: dict, key, codec: Codec, refs=None, current=None):
    """Decode ``state[key]`` through *codec*; errors name *key*."""
    if key not in state:
        if codec.keeps_default:
            return current
        raise CheckpointError("missing", [key])
    try:
        return codec.decode(state[key], refs, current)
    except CheckpointError as exc:
        exc.path.append(key)
        raise


@contextmanager
def at(*keys):
    """Prefix *keys* to the path of a :class:`CheckpointError` raised
    inside (for hand-written restores of nested objects)."""
    try:
        yield
    except CheckpointError as exc:
        exc.path.extend(reversed(keys))
        raise


def _same(value):
    return value


#: Codec -> accepted types, for plain codecs that decode to the data
#: itself (a list or map of them is checked in C-level passes).
_PLAIN_TYPES: dict = {}


def _plain(expected: str, types: tuple, convert=None) -> Codec:
    def decode(data, refs=None, current=None):
        if type(data) not in types:
            raise CheckpointError(f"expected {expected}, got {type(data).__name__}")
        return data if convert is None else convert(data)

    codec = Codec(_same, decode)
    if convert is None:
        _PLAIN_TYPES[codec] = frozenset(types)
    return codec


INT = _plain("an integer", (int,))
BOOL = _plain("a boolean", (bool,))
FLOAT = _plain("a number", (int, float), float)
STRING = _plain("a string", (str,))
OBJECT = _plain("an object", (dict,))


def optional(codec: Codec) -> Codec:
    """*codec*, or ``None``."""
    enc, dec = codec.encode, codec.decode
    return Codec(
        lambda value: None if value is None else enc(value),
        lambda data, refs=None, current=None: (
            None if data is None else dec(data, refs, current)
        ),
    )


OPT_INT = optional(INT)


def _expect_list(data, length=None) -> None:
    if type(data) is not list:
        raise CheckpointError(f"expected a list, got {type(data).__name__}")
    if length is not None and len(data) != length:
        raise CheckpointError(f"expected {length} entries, got {len(data)}")


def _decode_each(decs, data, refs, currents) -> list:
    out = []
    for i, (dec, value, current) in enumerate(zip(decs, data, currents)):
        try:
            out.append(dec(value, refs, current))
        except CheckpointError as exc:
            exc.path.append(i)
            raise
    return out


def listof(item: Codec, sized: bool = False) -> Codec:
    """A list of *item*; *sized* when the configuration fixes its length,
    so a restored list must be as long as the live one, whose entries the
    item codec receives as *current*."""
    enc, dec = item.encode, item.decode
    types = _PLAIN_TYPES.get(item)

    def decode(data, refs=None, current=None):
        _expect_list(data, len(current) if sized else None)
        if types is not None and set(map(type, data)) <= types:
            return list(data)
        return _decode_each(repeat(dec), data, refs, current if sized else repeat(None))

    if enc is _same:
        return Codec(list, decode)
    return Codec(lambda values: [enc(v) for v in values], decode)


INTS = listof(INT)


def seq(*items: Codec) -> Codec:
    """A fixed-length tuple of differently coded values, as a list."""
    encs = [item.encode for item in items]
    decs = [item.decode for item in items]

    def decode(data, refs=None, current=None):
        _expect_list(data, len(decs))
        return tuple(_decode_each(decs, data, refs, repeat(None)))

    return Codec(lambda values: [e(v) for e, v in zip(encs, values)], decode)


def mapping(key: Codec, value: Codec, ordered: bool = False) -> Codec:
    """A dict as ``[key, value]`` pairs, sorted by key, or in insertion
    order (an ``OrderedDict``) when *ordered*."""
    kenc, venc = key.encode, value.encode
    pairs = listof(seq(key, value))
    factory = OrderedDict if ordered else dict
    types = _PLAIN_TYPES.get(key)
    if types != _PLAIN_TYPES.get(value):
        types = None

    def encode(d):
        items = d.items() if ordered else sorted(d.items())
        if types is not None:
            return list(map(list, items))
        return [[kenc(k), venc(v)] for k, v in items]

    def decode(data, refs=None, current=None):
        if (
            types is not None
            and type(data) is list
            and set(map(type, data)) <= {list}
            and set(map(len, data)) <= {2}
            and set(map(type, chain.from_iterable(data))) <= types
        ):
            return factory(data)
        return factory(pairs.decode(data, refs))

    return Codec(encode, decode)


def member(enum_cls, by: str = "name") -> Codec:
    """An enum member, stored by its name (or its ``value``)."""
    members = {getattr(m, by): m for m in enum_cls}

    def decode(data, refs=None, current=None):
        try:
            return members[data]
        except (KeyError, TypeError):
            raise CheckpointError(f"expected one of {sorted(members)}") from None

    return Codec(attrgetter(by), decode)


def _int_values(data, refs=None, current=None):
    for key in OBJECT.decode(data):
        field(data, key, INT)
    return data


@functools.cache
def _field_codecs(cls) -> tuple:
    def codec_for(hint) -> Codec:
        origin = typing.get_origin(hint)
        if origin is list:
            return listof(codec_for(typing.get_args(hint)[0]))
        if origin is dict:  # after to_dict: string keys, integer values
            return Codec(_same, _int_values)
        if dataclasses.is_dataclass(hint):
            return record(hint)
        return {int: INT, float: FLOAT, bool: BOOL}[hint]

    hints = typing.get_type_hints(cls)
    return tuple((f.name, codec_for(hints[f.name])) for f in dataclasses.fields(cls))


def record(cls) -> Codec:
    """A dataclass through its ``to_dict``/``from_dict`` (stats, the
    sampler's timeseries); every field must be present, with a JSON type
    its declared type accepts."""

    def decode(data, refs=None, current=None):
        OBJECT.decode(data)
        for name, codec in _field_codecs(cls):
            field(data, name, codec)
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise CheckpointError(str(exc)) from None

    return Codec(lambda value: value.to_dict(), decode)


_RNG_STATE = seq(INT, INTS, optional(FLOAT))


def _encode_rng(rng):
    if rng is None:
        return None
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _decode_rng(data, refs=None, current=None):
    if data is None and current is None:
        return None
    if current is None:
        raise CheckpointError("no generator to restore into")
    version, internal, gauss_next = _RNG_STATE.decode(data)
    try:
        current.setstate((version, tuple(internal), gauss_next))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad generator state ({exc})") from None
    return current


#: A ``random.Random``'s state, restored into the live generator.
RNG = Codec(_encode_rng, _decode_rng)


def in_place(codec: Codec) -> Codec:
    """*codec* for a list that others alias: restored by slice assignment
    into the live list, never rebound."""

    def decode(data, refs=None, current=None):
        current[:] = codec.decode(data, refs, current)
        return current

    return codec._replace(decode=decode)


def or_default(codec: Codec) -> Codec:
    """*codec* for a row a payload captured under another policy lacks."""
    return codec._replace(keeps_default=True)


def ref(kind: str, id_attr: str) -> Codec:
    """An object written as its id and resolved through ``refs[kind]``."""

    def decode(data, refs=None, current=None):
        try:
            return refs[kind][INT.decode(data)]
        except (KeyError, TypeError):
            raise CheckpointError(f"no {kind} with id {data}") from None

    return Codec(attrgetter(id_attr), decode)


TASK = ref("task", "task_id")
REQUEST = ref("request", "req_id")


def _restore_into(component, data, refs):
    if not isinstance(component, Stateful):
        raise CheckpointError("no component to restore into")
    component.restore_state(data, refs)
    return component


#: A nested component, restored in place; ``None`` stands for an absent
#: component or one without checkpoint state.
COMPONENT = Codec(
    lambda c: c.snapshot_state() if isinstance(c, Stateful) else None,
    lambda data, refs=None, current=None: (
        current
        if data is None and not isinstance(current, Stateful)
        else _restore_into(current, data, refs)
    ),
)

#: A list of components, each restored in place into the live one.
COMPONENTS = listof(COMPONENT, sized=True)


def component_map(key: Codec) -> Codec:
    """A dict of components as sorted ``[key, state]`` pairs, restored in
    place; the payload must name every key exactly once."""
    pairs = listof(seq(key, OBJECT))

    def decode(data, refs=None, current=None):
        decoded = pairs.decode(data)
        if sorted(k for k, _ in decoded) != sorted(current):
            raise CheckpointError(f"expected the keys {sorted(current)}")
        for i, (k, state) in enumerate(decoded):
            try:
                _restore_into(current[k], state, refs)
            except CheckpointError as exc:
                exc.path.extend((1, i))
                raise
        return current

    return Codec(
        lambda cs: [[key.encode(k), c.snapshot_state()] for k, c in sorted(cs.items())],
        decode,
    )


class Stateful:
    """Base of every checkpointed class: ``snapshot_state`` and
    ``restore_state`` come from the class's ``STATE`` table."""

    __slots__ = ()

    STATE: tuple = ()
    DERIVED: tuple = ()
    _rows: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._rows = tuple(
            (row[0], row[1], row[2] if len(row) > 2 else row[0])
            for klass in reversed(cls.__mro__)
            for row in vars(klass).get("STATE", ())
        )

    def snapshot_state(self) -> dict:
        """The payload: every ``STATE`` row through its codec, in order."""
        return {key: codec.encode(getattr(self, attr)) for attr, codec, key in self._rows}

    def restore_state(self, state: dict, refs: dict | None = None) -> None:
        """Inverse of :meth:`snapshot_state`, then :meth:`_rebuild`."""
        OBJECT.decode(state)
        for attr, codec, key in self._rows:
            setattr(self, attr, field(state, key, codec, refs, getattr(self, attr)))
        self._rebuild()

    def _rebuild(self) -> None:
        """Recompute the ``DERIVED`` views from the restored rows."""
