"""One strict JSON codec for every run description.

A run is described by frozen dataclasses: the
:class:`~repro.config.PearlConfig` sections, ``JobSpec`` and
``TraceSpec`` (:mod:`repro.experiments.parallel`) and the
:class:`~repro.faults.FaultSchedule` family.  Their JSON form is derived
from ``dataclasses.fields`` and the fields' type hints, so the
dataclasses are the only field list.  :func:`to_doc` encodes one;
:func:`from_doc` decodes strictly:

* ``bool`` comes only from JSON booleans and ``int`` only from
  non-boolean integers (``true`` is no count and ``1`` no switch);
* ``float`` comes from any finite number;
* ``str`` comes from strings, ``Optional[T]`` from ``T`` or ``null``,
  ``Tuple[T, ...]`` from a list of ``T``, and a dataclass-typed field
  from a nested object decoded by the same rules;
* unknown keys are rejected and omitted keys take the field default.

Every rejection is a :class:`ValueError` naming the field's dotted path,
so a typo or a mistyped value can never become a different run.
``save_config`` writes a config as JSON and ``load_config`` reads it
back, so a result file can always name the configuration behind it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from pathlib import Path
from typing import Any, Callable, Collection, Dict, Tuple, Type, TypeVar, Union

from .config import PearlConfig

T = TypeVar("T")

Encode = Callable[[Any], Any]
Decode = Callable[[Any, str], Any]

#: A converter's "wrong JSON type" answer (``None`` is a valid result).
_REJECT = object()


def _show(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _to_float(value: Any, path: str) -> Any:
    if type(value) is float:
        return value if math.isfinite(value) else _REJECT
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return _REJECT
    return _REJECT


#: Scalar type -> (JSON description, encoder, converter).
_SCALARS: Dict[type, Tuple[str, Encode, Decode]] = {
    bool: ("a boolean", bool, lambda v, p: v if type(v) is bool else _REJECT),
    int: ("an integer", int, lambda v, p: v if type(v) is int else _REJECT),
    float: ("a number", float, _to_float),
    str: ("a string", str, lambda v, p: v if type(v) is str else _REJECT),
}


def _codec(hint: Any, nullable: bool = False) -> Tuple[Encode, Decode]:
    """The encoder and strict decoder of one field type."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (Union, types.UnionType):
        inner = [arg for arg in args if arg is not type(None)]
        if len(inner) != 1 or len(args) != 2:
            raise TypeError(f"unsupported field type {hint!r}")
        return _codec(inner[0], nullable=True)
    if hint in _SCALARS:
        what, encode, convert = _SCALARS[hint]
    elif dataclasses.is_dataclass(hint):
        what, encode = "an object", to_doc

        def convert(value: Any, path: str) -> Any:
            if type(value) is not dict:
                return _REJECT
            return _decode(hint, value, path, {})

    elif typing.get_origin(hint) is tuple and len(args) == 2 and args[1] is ...:
        item_encode, item_decode = _codec(args[0])
        what = "a list"

        def encode(value: Any) -> Any:
            return [item_encode(item) for item in value]

        def convert(value: Any, path: str) -> Any:
            if type(value) is not list:
                return _REJECT
            return tuple(
                item_decode(item, f"{path}[{index}]")
                for index, item in enumerate(value)
            )

    else:
        raise TypeError(f"unsupported field type {hint!r}")

    if nullable:
        what += " or null"
        plain_encode = encode

        def encode(value: Any) -> Any:
            return None if value is None else plain_encode(value)

    def decode(value: Any, path: str) -> Any:
        if value is None and nullable:
            return None
        out = convert(value, path)
        if out is _REJECT:
            raise ValueError(f"{path} must be {what}, got {_show(value)}")
        return out

    return encode, decode


# Resolving type hints costs a few hundred microseconds per class, far
# more than a whole walk, so each class is resolved once.
@functools.cache
def _fields(cls: type) -> Tuple[Dict[str, Tuple[Encode, Decode]], frozenset]:
    """({field: (encode, decode)}, required field names) of a dataclass."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return (
        {f.name: _codec(hints[f.name]) for f in fields},
        frozenset(
            f.name
            for f in fields
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ),
    )


def to_doc(obj: Any, skip: Collection[str] = ()) -> Dict[str, Any]:
    """JSON-able dict of a run dataclass: one key per field but ``skip``."""
    codecs, _ = _fields(type(obj))
    return {
        name: encode(getattr(obj, name))
        for name, (encode, _) in codecs.items()
        if name not in skip
    }


def from_doc(cls: Type[T], data: Any, path: str = "", **given: Any) -> T:
    """Rebuild ``cls`` from :func:`to_doc` output, strictly.

    ``given`` supplies fields from outside the document; a document
    carrying one of them is rejected like any unknown key.  ``path``
    prefixes the field names in error messages.
    """
    if type(data) is not dict:
        raise ValueError(
            f"{path or cls.__name__} must be an object, got {_show(data)}"
        )
    return _decode(cls, data, path, given)


def _decode(
    cls: Type[T], data: Dict[str, Any], path: str, given: Dict[str, Any]
) -> T:
    codecs, required = _fields(cls)
    where = path or cls.__name__
    unknown = [key for key in data if key not in codecs or key in given]
    if unknown:
        raise ValueError(f"unknown {where} fields: {sorted(unknown)}")
    missing = required - data.keys() - given.keys()
    if missing:
        raise ValueError(f"{where} needs the fields {sorted(missing)}")
    prefix = f"{path}." if path else ""
    kwargs = {
        name: codecs[name][1](value, prefix + name)
        for name, value in data.items()
    }
    return cls(**kwargs, **given)


def config_to_dict(config: PearlConfig) -> Dict[str, Any]:
    """Plain-dict form of a config (JSON-compatible)."""
    return to_doc(config)


def config_from_dict(data: Dict[str, Any]) -> PearlConfig:
    """Rebuild a :class:`PearlConfig` from :func:`config_to_dict` output."""
    return from_doc(PearlConfig, data)


def save_config(config: PearlConfig, path: Union[str, Path]) -> Path:
    """Write a config as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
    return path


def load_config(path: Union[str, Path]) -> PearlConfig:
    """Read a config written by :func:`save_config`."""
    data = json.loads(Path(path).read_text())
    return config_from_dict(data)
