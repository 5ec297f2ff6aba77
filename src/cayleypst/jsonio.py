"""Deterministic JSON rendering: fixed key order, 17-significant-digit floats."""

from __future__ import annotations

import json as _json
import math


def _scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} in JSON output")
        return f"{value:.17g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _json.dumps(value, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(value).__name__} as a JSON scalar")


_INT = {int}


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def dumps(value, _level: int = 0) -> str:
    """Render to JSON text; dict keys keep insertion order, floats use %.17g.

    Lists of scalars are kept on one line; identical inputs always produce
    identical bytes.
    """
    if _is_scalar(value):
        return _scalar(value)
    pad = "  " * _level
    inner = "  " * (_level + 1)
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(_is_scalar(item) for item in items):
            return "[" + ", ".join(_scalar(item) for item in items) + "]"
        if all(type(item) is list and item and set(map(type, item)) == _INT for item in items):
            # rows of plain ints (coordinates, index lists): str() is their scalar form
            body = ",\n".join(inner + "[" + ", ".join(map(str, item)) + "]" for item in items)
            return "[\n" + body + "\n" + pad + "]"
        body = ",\n".join(inner + dumps(item, _level + 1) for item in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{inner}{_json.dumps(key)}: {dumps(item, _level + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")
