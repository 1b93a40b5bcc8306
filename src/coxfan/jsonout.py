"""The one JSON writer: sorted keys, two-space indent, written in bounded batches.

The text is byte-identical to ``json.dumps(obj, indent=2, sort_keys=True) +
"\\n"``, but the document is never held whole: it is produced piece by piece
and handed to ``write`` in batches of about ``BATCH_CHARS`` characters.
Arrays may be given as iterators, so a long list of records can be made one
record at a time while it is written.

Only the values coxfan emits are accepted: dicts with string keys, lists,
tuples and iterators (as arrays), strings, integers, booleans and None.
"""
from __future__ import annotations

from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

BATCH_CHARS = 1 << 14


def write_json(obj, write) -> None:
    """Write ``obj`` and a final newline through ``write`` in bounded batches."""
    text = _leaf(obj, 0)
    pieces = (text,) if text is not None else _pieces(obj, 0)
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= BATCH_CHARS:
            write("".join(batch))
            batch, size = [], 0
    batch.append("\n")
    write("".join(batch))


def _leaf(o, level):
    """Text of a scalar or of a non-empty flat list of ints or of strings; else None."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return None
        if all(type(x) is int for x in o):
            items = map(int.__repr__, o)
        elif all(type(x) is str for x in o):
            items = map(encode_basestring_ascii, o)
        else:
            return None
        inner = "\n" + "  " * (level + 1)
        return "[" + inner + ("," + inner).join(items) + "\n" + "  " * level + "]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    return None


def _pieces(o, level):
    """Pieces of a dict or of an array that is not a flat leaf."""
    inner = "\n" + "  " * (level + 1)
    if isinstance(o, dict):
        if not o:
            yield "{}"
            return
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, not {type(key).__name__}")
            head = sep + encode_basestring_ascii(key) + ": "
            value = o[key]
            text = _leaf(value, level + 1)
            if text is None:
                yield head
                yield from _pieces(value, level + 1)
            else:
                yield head + text
            sep = "," + inner
        yield "\n" + "  " * level + "}"
    elif isinstance(o, (list, tuple, Iterator)):
        sep = "[" + inner
        for item in o:
            text = _leaf(item, level + 1)
            if text is None:
                yield sep
                yield from _pieces(item, level + 1)
            else:
                yield sep + text
            sep = "," + inner
        yield "[]" if sep[0] == "[" else "\n" + "  " * level + "]"
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
