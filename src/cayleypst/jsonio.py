"""Deterministic JSON rendering: fixed key order, 17-significant-digit floats.

`pieces` yields the text in pieces and `dumps` joins them.  An integer numpy
array renders as nested lists with its last axis on one line, the same bytes
as its `.tolist()`, straight from the array a bounded block of rows at a time:
a document holding |G| coordinates never becomes one Python list per element,
nor one string copied at every nesting level.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from json.encoder import encode_basestring, encode_basestring_ascii

import numpy as np

# Integers per block of rows: each block is one %-format of this many values.
_BLOCK_VALUES = 8192


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
        return encode_basestring(value)
    raise TypeError(f"cannot serialize {type(value).__name__} as a JSON scalar")


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def format_rows(array: np.ndarray, line: str, sep: str) -> Iterator[str]:
    """Text of the rows of an int array: each row fills the %-template `line`, rows joined by `sep`.

    One row takes the values of array[i] in C order.  The rows are formatted a
    block of at most _BLOCK_VALUES integers (and at least one row) at a time.
    """
    step = max(1, min(len(array), _BLOCK_VALUES // max(1, math.prod(array.shape[1:]))))
    full = sep.join([line] * step)
    for start in range(0, len(array), step):
        block = array[start : start + step]
        template = full if len(block) == step else sep.join([line] * len(block))
        if start:
            yield sep
        yield template % tuple(block.ravel().tolist())


def _template(shape: tuple[int, ...], level: int) -> str:
    """%-template of an int array of this shape whose first line the caller indents to `level`."""
    if len(shape) == 1:
        return "[" + ", ".join(["%d"] * shape[0]) + "]"
    if not shape[0]:
        return "[]"
    item = "  " * (level + 1) + _template(shape[1:], level + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + "  " * level + "]"


def _leaf(value) -> str | None:
    """Text of a value rendered whole: a scalar, a list of scalars, {} or an int array with no rows.

    None for anything else, which `pieces` renders piece by piece.
    """
    if _is_scalar(value):
        return _scalar(value)
    if isinstance(value, (list, tuple)):
        if all(_is_scalar(item) for item in value):
            return "[" + ", ".join(map(_scalar, value)) + "]"
        return None
    if isinstance(value, np.ndarray):
        if value.ndim < 2 or not np.issubdtype(value.dtype, np.integer):
            raise TypeError(f"cannot serialize a {value.ndim}-d {value.dtype} array to JSON")
        return None if len(value) else "[]"
    if isinstance(value, dict) and not value:
        return "{}"
    return None


def pieces(value, _level: int = 0) -> Iterator[str]:
    """Yield the JSON text of `value` in pieces; dict keys keep insertion order, floats use %.17g.

    Lists of scalars are kept on one line; 2-d and deeper integer arrays
    render like their `.tolist()`.  An iterator renders like a list with each
    item on its own line, and is consumed as its text is yielded.  Identical
    inputs always produce identical bytes.
    """
    leaf = _leaf(value)
    if leaf is not None:
        yield leaf
        return
    pad = "  " * _level
    inner = "  " * (_level + 1)
    if isinstance(value, np.ndarray):
        yield "[\n"
        yield from format_rows(value, inner + _template(value.shape[1:], _level + 1), ",\n")
        yield "\n" + pad + "]"
        return
    if isinstance(value, (list, tuple, Iterator)):
        brackets, entries = "[]", (("", item) for item in value)
    elif isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        brackets = "{}"
        entries = ((encode_basestring_ascii(key) + ": ", item) for key, item in value.items())
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")
    head = brackets[0] + "\n" + inner
    for label, item in entries:
        leaf = _leaf(item)
        if leaf is None:
            yield head + label
            yield from pieces(item, _level + 1)
        else:
            yield head + label + leaf
        head = ",\n" + inner
    # an empty iterator, the one container that reaches here with no entries
    yield "\n" + pad + brackets[1] if head[0] == "," else brackets


def dumps(value) -> str:
    """Render to JSON text: the joined `pieces` of `value`."""
    return "".join(pieces(value))
