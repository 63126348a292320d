"""
The one JSON codec for every artifact written and read back: category,
background index, events, score, manifest, scene, meta and the run config.

`encode`: a dataclass becomes an object keyed by field name, or by
``field(metadata={"key": ...})`` where the key is not a legal Python name;
a dataclass with ``JSON_ARRAY = True`` (``BBox``) becomes the list of its
values; an ``Enum`` becomes its value; tuples and lists become lists.

`decode` follows the target's type hints: an int takes a JSON integer, a
float an integer or a float, a str a string (and a bool none of them);
it looks enums up by value, accepts null for ``X | None`` and recurses into
lists, tuples and dataclasses. A key missing from the object keeps the
value of ``default``, else the dataclass default; a ``dict`` field merges
over its default, and a ``dict[str, V]`` field decodes each value as
``V``. Keys that are not fields are ignored, so files that carry keys an
older version wrote keep loading; the run config, which is hand-written,
rejects unknown keys itself before decoding. A value that does not fit
its type raises `ParseError`.

`dumps` is the one on-disk format: sorted keys, indent 2, final newline.
`write_json` replaces its file atomically, through `write_atomic`, the one
way the program writes a file.
"""

from __future__ import annotations

import functools
import json
import os
import types
import typing
from collections.abc import Iterable
from dataclasses import MISSING, Field, fields, is_dataclass
from enum import Enum
from pathlib import Path

from .errors import ParseError, StallwatchError


@functools.cache
def _fields(cls) -> tuple[tuple[Field, str, object], ...]:
    """(field, JSON key, resolved type) for each field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f, f.metadata.get("key", f.name), hints[f.name])
                 for f in fields(cls))


def encode(value):
    """`value` as plain JSON data; see the module docstring for the rules."""
    if is_dataclass(value):
        items = [(key, encode(getattr(value, f.name)))
                 for f, key, _ in _fields(type(value))]
        if getattr(value, "JSON_ARRAY", False):
            return [v for _, v in items]
        return dict(items)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    return value


# the JSON values a field of each scalar type takes: a bool is none of them
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


@functools.cache
def _dispatch(cls) -> tuple[object, tuple, bool]:
    """(origin, arguments, is a dataclass) of a type hint."""
    return typing.get_origin(cls), typing.get_args(cls), is_dataclass(cls)


def decode(cls, obj, default=None):
    """Parsed JSON `obj` as a value of type `cls`; keys missing from `obj`
    keep the value they have in `default`."""
    origin, args, dataclass_type = _dispatch(cls)
    if origin in (typing.Union, types.UnionType):
        if obj is None and type(None) in args:
            return None
        (cls,) = [a for a in args if a is not type(None)]
        return decode(cls, obj, default)
    if origin in (list, tuple):
        if not isinstance(obj, list):
            raise ParseError(f"expected a list, got {obj!r}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(obj) != len(args):
                raise ParseError(f"expected {len(args)} items, got {obj!r}")
            return tuple(decode(a, v) for a, v in zip(args, obj))
        items = [decode(args[0], v) for v in obj]
        return items if origin is list else tuple(items)
    if dataclass_type:
        return _decode_dataclass(cls, obj, default)
    if cls is dict or origin is dict:
        if not isinstance(obj, dict):
            raise ParseError(f"expected an object, got {obj!r}")
        if args:
            obj = {k: decode(args[1], v) for k, v in obj.items()}
        return {**(default or {}), **obj}
    if isinstance(obj, (list, dict)):
        raise ParseError(f"expected {cls.__name__}, got {obj!r}")
    if cls in _JSON_TYPES and type(obj) not in _JSON_TYPES[cls]:
        raise ParseError(f"bad {cls.__name__} value {obj!r}")
    try:
        return cls(obj)
    except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise ParseError(f"bad {cls.__name__} value {obj!r}") from exc


def _decode_dataclass(cls, obj, default):
    spec = _fields(cls)
    if getattr(cls, "JSON_ARRAY", False):
        if not isinstance(obj, list) or len(obj) != len(spec):
            raise ParseError(f"{cls.__name__} must be a list of {len(spec)} "
                             f"values, got {obj!r}")
        obj = {key: v for (_, key, _), v in zip(spec, obj)}
    if not isinstance(obj, dict):
        raise ParseError(f"{cls.__name__} must be an object, got {obj!r}")
    kwargs = {}
    for f, key, hint in spec:
        base = getattr(default, f.name, None)
        if key in obj:
            kwargs[f.name] = decode(hint, obj[key], base)
        elif default is not None:
            kwargs[f.name] = base
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ParseError(f"{cls.__name__}: missing key {key!r}")
    return cls(**kwargs)


def dumps(value) -> str:
    """The on-disk text of `value`: sorted keys, two-space indent, newline."""
    return json.dumps(encode(value), sort_keys=True, indent=2) + "\n"


def write_atomic(path: str | Path, data: bytes | Iterable) -> None:
    """Write `data`, bytes or an iterable of buffers each written as it is
    taken, to a new file beside `path`, then rename it over `path`: a
    reader, or the next run, sees the old file or the new one, never a
    torn one. If the write fails, also while the iterable is taken, the new
    file is removed and the error raised. The rename is not synced to disk,
    so a power cut may still lose it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, value) -> None:
    write_atomic(path, dumps(value).encode())


def read_json(path: str | Path, cls):
    """Parse and decode one JSON file; a malformed file raises `ParseError`
    naming it, also one nested too deep to parse. A missing file raises
    `FileNotFoundError`."""
    try:
        return decode(cls, json.loads(Path(path).read_text()))
    except (ValueError, RecursionError, StallwatchError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
