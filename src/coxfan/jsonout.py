"""The one JSON writer: the standard library's encoder, written in bounded batches."""
import json
from itertools import chain, islice

BATCH_CHARS = 1 << 14


class _Stream(list):
    """An iterator as a list that holds its first item: with an indent, ``iterencode``'s
    encoder reads a list only by testing it for emptiness and by iterating over it."""
    def __init__(self, items):
        if iter(items) is not items:   # an iterator, not a container
            raise TypeError(f"Object of type {type(items).__name__} is not JSON serializable")
        super().__init__(islice(items, 1))
        self.rest = items

    def __iter__(self):
        return chain(super().__iter__(), self.rest)


def write_json(obj, write) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, ``BATCH_CHARS`` at a time."""
    batch, size = [], 0
    for piece in json.JSONEncoder(indent=2, sort_keys=True, default=_Stream).iterencode(obj):
        batch.append(piece)
        size += len(piece)
        if size >= BATCH_CHARS:
            write("".join(batch))
            batch, size = [], 0
    write("".join(batch) + "\n")
