"""How palmwatch reads a JSON document and types its fields.

Every JSON input (raster headers, annotations, detections, model
parameters, augment and scene specs, run manifests) goes through
``read_document`` and is typed by one rule, ``typed``:

* ``int`` is a JSON integer, never a bool;
* ``float`` is a JSON integer or number, never a bool, returned as float;
* ``str``, ``bool`` and ``dict`` match their JSON types;
* ``X | None`` also allows null;
* ``tuple[A, B]`` is a list of that length, ``tuple[A, ...]`` a list of
  any length;
* ``dict[str, T]`` is an object whose values are ``T``.

Documents that map one-to-one onto a dataclass are built by
``from_fields``, which types each field by its annotation and rejects
unknown keys.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import FormatError

_REQUIRED = object()


def read_document(path, what: str) -> dict:
    """Read the JSON object in file ``path``; every failure raises FormatError.

    ``what`` names the document in messages ("annotations", "header", ...).
    """
    source = f"{what} {path}"
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{source} is not UTF-8 text: {exc}") from exc
    # JSONDecodeError is a ValueError, as is an integer too long to convert;
    # nesting deeper than the recursion limit raises RecursionError
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{source} must be a JSON object, got {type(doc).__name__}")
    return doc


def typed(value, tp, where: str):
    """``value`` as JSON type ``tp`` (see the module rule), or raise FormatError."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:
        if value is None and type(None) in args:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return typed(value, inner, where)
    if origin is tuple:
        if isinstance(value, list):
            if args[-1] is Ellipsis:
                args = (args[0],) * len(value)
            if len(value) == len(args):
                return tuple(
                    typed(v, t, f"{where}[{i}]") for i, (v, t) in enumerate(zip(value, args))
                )
    elif origin is dict:
        if isinstance(value, dict):
            return {k: typed(v, args[1], f"{where}[{k!r}]") for k, v in value.items()}
    elif isinstance(value, bool):
        if tp is bool:
            return value
    elif tp is float and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    elif isinstance(value, tp):
        return value
    name = tp.__name__ if origin is None else str(tp)
    raise FormatError(f"{where} must be {name}, got {value!r:.80}")


def take(doc: dict, key: str, tp, where: str, default=_REQUIRED):
    """Field ``key`` of ``doc`` typed as ``tp``; ``default`` when absent, if given."""
    if key not in doc:
        if default is _REQUIRED:
            raise FormatError(f"{where} is missing field {key!r}")
        return default
    return typed(doc[key], tp, f"{where} field {key!r}")


def from_fields(cls, doc: dict, where: str):
    """Build dataclass ``cls`` from ``doc``, one key per field.

    Each value is typed by its field's annotation; unknown keys and
    missing fields without a default raise FormatError.
    """
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise FormatError(f"{where} has unknown fields {unknown}")
    hints = get_type_hints(cls)
    return cls(**{
        f.name: take(doc, f.name, hints[f.name], where)
        for f in fields(cls)
        if f.name in doc or (f.default is MISSING and f.default_factory is MISSING)
    })
