"""JSON serialisation of experiment inputs and results.

Experiment records contain dataclasses, numpy scalars/arrays and nested
containers; :func:`to_jsonable` flattens them into plain Python structures so
results can be written to disk and re-loaded for later comparison
(EXPERIMENTS.md is generated from such records).

:func:`from_jsonable` is the typed inverse for *inputs*: given a target
dataclass (or container/primitive annotation) it rebuilds the original object
tree from the plain structures, which is what gives
:class:`repro.api.Scenario` its JSON round trip.

Both directions dispatch through plans built once and cached: an encoder per
runtime type (a dataclass becomes its tuple of field names) and a decoder per
annotation (a dataclass becomes its ``(field, decoder)`` pairs, from one
:func:`typing.get_type_hints` call; union, tuple, list and dict decoders are
composed from the decoders of their parts).  Reflection therefore runs once
per type, not on every record a store hit or a served request decodes.

Decoding does not coerce.  ``int`` accepts an int or an integral float,
``float`` an int or a float, ``bool`` only a bool, ``str`` only a string;
a bool is never a number, ``null`` only fills ``Optional``/``Any`` slots,
a fixed-length tuple needs exactly its length, and containers need JSON
arrays or objects.  Anything else raises :class:`TypeError`, so a damaged
stored record reads as a miss and a malformed plan is refused instead of
running something other than what it says.  Mapping keys are JSON strings,
so dict annotations round trip with ``str`` (or ``Any``) keys.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np

Codec = Callable[[Any], Any]

#: Encoders by runtime type and decoders by annotation, built on first use.
#: A plan depends only on its key, so two threads racing to build the same
#: one store equal plans and no lock is needed.
_ENCODERS: Dict[type, Codec] = {}
_DECODERS: Dict[Any, Codec] = {}


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serialisable primitives."""
    kind = type(obj)
    try:
        encode = _ENCODERS[kind]
    except KeyError:
        encode = _ENCODERS[kind] = _build_encoder(kind)
    return encode(obj)


def _identity(obj: Any) -> Any:
    return obj


def _encode_sequence(obj: Any) -> Any:
    return [to_jsonable(item) for item in obj]


def _encode_mapping(obj: Any) -> Any:
    return {str(key): to_jsonable(value) for key, value in obj.items()}


def _build_encoder(kind: type) -> Codec:
    # The order is the precedence: a numpy float is a float and an int enum
    # an int, so both pass through unchanged.
    if kind is type(None) or issubclass(kind, (int, float, str)):
        return _identity
    if issubclass(kind, Enum):
        return lambda obj: obj.value
    if issubclass(kind, np.integer):
        return int
    if issubclass(kind, np.floating):
        return float
    if issubclass(kind, np.ndarray):
        return lambda obj: _encode_sequence(obj.tolist())
    if dataclasses.is_dataclass(kind):
        names = tuple(field.name for field in dataclasses.fields(kind))
        return lambda obj: {name: to_jsonable(getattr(obj, name)) for name in names}
    if issubclass(kind, dict):
        return _encode_mapping
    if issubclass(kind, (list, tuple, set, frozenset)):
        return _encode_sequence
    if issubclass(kind, Path):
        return str
    if hasattr(kind, "to_jsonable"):
        return lambda obj: to_jsonable(obj.to_jsonable())
    raise TypeError(f"cannot serialise object of type {kind.__name__}")


def from_jsonable(cls: Any, data: Any) -> Any:
    """Rebuild an object of type ``cls`` from :func:`to_jsonable` output.

    ``cls`` may be a dataclass, a parametrised container annotation
    (``Tuple[int, ...]``, ``Dict[str, float]``, ``Optional[...]``/unions), an
    :class:`~enum.Enum`, :class:`~pathlib.Path` or a JSON primitive type.
    Dataclass fields are reconstructed recursively from their type hints, so
    nested frozen dataclasses (the shape of every spec in this package) round
    trip without any per-class loading code.  Data of the wrong shape or
    JSON type raises :class:`TypeError` (see the module docstring); an enum
    or a dataclass's own validation may raise :class:`ValueError`.
    """
    return _decoder(cls)(data)


def _decoder(annotation: Any, planning: tuple = ()) -> Codec:
    """The cached decoder of ``annotation``, built on first use.

    ``planning`` holds the annotations whose decoders are being built, so a
    dataclass that refers to itself gets a decoder that looks its own up when
    called, which is after the build has finished.
    """
    try:
        return _DECODERS[annotation]
    except KeyError:
        pass
    if annotation in planning:
        return lambda data: _decoder(annotation)(data)
    decode = _DECODERS[annotation] = _build_decoder(annotation, planning + (annotation,))
    return decode


def _mismatch(expected: str, data: Any) -> TypeError:
    return TypeError(f"expected {expected}, got {type(data).__name__} {data!r}")


def _decode_int(data: Any) -> int:
    if isinstance(data, int) and not isinstance(data, bool):
        return int(data)
    if isinstance(data, float) and data.is_integer():
        return int(data)
    raise _mismatch("an integer", data)


def _decode_float(data: Any) -> float:
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        return float(data)
    raise _mismatch("a number", data)


def _decode_bool(data: Any) -> bool:
    if isinstance(data, bool):
        return data
    raise _mismatch("a bool", data)


def _decode_str(data: Any) -> str:
    if isinstance(data, str):
        return data
    raise _mismatch("a string", data)


def _array(data: Any) -> Any:
    if isinstance(data, (list, tuple)):
        return data
    raise _mismatch("an array", data)


_PRIMITIVES: Dict[type, Codec] = {
    int: _decode_int,
    float: _decode_float,
    bool: _decode_bool,
    str: _decode_str,
}


def _build_decoder(cls: Any, planning: tuple) -> Codec:
    if cls is Any or cls is None:
        return _identity
    origin = typing.get_origin(cls)
    args = typing.get_args(cls)
    if origin is None:
        if dataclasses.is_dataclass(cls) and isinstance(cls, type):
            return _dataclass_decoder(cls, planning)
        if cls in _PRIMITIVES:
            return _PRIMITIVES[cls]
        if not isinstance(cls, type):
            return _identity  # a string or other unresolved annotation
        if issubclass(cls, Enum):
            return cls
        if issubclass(cls, Path):
            return Path

        def decode_instance(data: Any) -> Any:
            if isinstance(data, cls):
                return data
            raise _mismatch(f"an instance of {cls.__name__}", data)

        return decode_instance
    if origin in (typing.Union, types.UnionType):
        return _union_decoder(cls, args, planning)
    if origin is tuple and args and args[-1] is not Ellipsis:
        items = tuple(_decoder(arg, planning) for arg in args)

        def decode_fixed(data: Any) -> tuple:
            if len(_array(data)) != len(items):
                raise _mismatch(f"an array of {len(items)} items", data)
            return tuple(decode(value) for decode, value in zip(items, data))

        return decode_fixed
    if origin in (tuple, list):
        item = _decoder(args[0] if args else Any, planning)
        return lambda data: origin(map(item, _array(data)))
    if origin is dict:
        key, value = (_decoder(arg, planning) for arg in (args or (Any, Any)))

        def decode_mapping(data: Any) -> dict:
            if not isinstance(data, dict):
                raise _mismatch("an object", data)
            return {key(name): value(item) for name, item in data.items()}

        return decode_mapping
    raise TypeError(f"cannot rebuild objects of type {cls!r}")


def _dataclass_decoder(cls: type, planning: tuple) -> Codec:
    hints = typing.get_type_hints(cls)
    plan = tuple(
        (field.name, _decoder(hints[field.name], planning))
        for field in dataclasses.fields(cls)
        if field.init
    )

    def decode(data: Any) -> Any:
        if not isinstance(data, dict):
            raise TypeError(
                f"expected a mapping to rebuild {cls.__name__}, got {type(data).__name__}"
            )
        return cls(**{name: field(data[name]) for name, field in plan if name in data})

    return decode


def _union_decoder(cls: Any, args: tuple, planning: tuple) -> Codec:
    optional = type(None) in args
    arms = tuple(_decoder(arg, planning) for arg in args if arg is not type(None))

    def decode(data: Any) -> Any:
        if data is None and optional:
            return None
        last_error: Exception | None = None
        for arm in arms:
            try:
                return arm(data)
            except (TypeError, ValueError, KeyError) as error:
                last_error = error
        raise TypeError(
            f"no union arm of {cls} accepts {data!r} ({last_error})"
        ) from last_error

    return decode


def dump_json(obj: Any, path: str | Path, *, indent: int = 2) -> Path:
    """Serialise ``obj`` to JSON at ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(obj), indent=indent, sort_keys=True), encoding="utf-8")
    return path


def load_json(path: str | Path) -> Any:
    """Load a JSON document previously written with :func:`dump_json`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
