"""The bytes of every written artifact: one CSV dialect, one JSON layout,
and the tie sections of the edge lists and graph files.

CSV has a header row and ``\\n``-terminated rows. The ``csv`` module
writes a float as ``repr`` does, in its shortest round-trip form, so a
float column reads back to the same bits. JSON has sorted keys, a
two-space indent and a trailing newline, and never holds NaN or Infinity,
which are not JSON: the bytes that ``json.dumps`` writes with a two-space
``indent``, ``sort_keys`` and no ``allow_nan``. With an indent, ``json``
encodes in Python, so ``json_text`` gives each container of scalars, and each list
of such dicts, to json's C encoder in one call, with the line break and
indent of its items as the item separator; records are then indented by
one ``str.replace`` (see ``_json``). Other values are walked in Python.

A network's tie lines come from ``tie_lines``: the caller formats one
left and one right piece per node and one tail per distinct weight, and
each line is the three pieces of its tie joined. So no name, coordinate
or weight is formatted once per tie. The distinct weights are found and
the lines joined ``TIE_CHUNK`` ties at a time, and a writer (of an edge
list or a figure) takes one string at a time, so what is in flight stays
bounded by a chunk and the distinct weights, whatever the tie count.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# ties whose pieces are gathered and joined at once
TIE_CHUNK = 8192


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``header``, then one line per row of ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def csv_cells(values: Iterable[str]) -> list[str]:
    """Each value as ``csv_text`` writes it before a later field of its
    row: the cell, quoted if it must be, then the delimiter."""
    # a row's only field is quoted when it is empty, so each value leads a
    # two-field row, written without its "\n"
    return [csv_text((value, ""), ())[:-1] for value in values]


def json_text(payload) -> str:
    """``payload`` as json's indented encoder writes it (two spaces,
    sorted keys, no NaN or Infinity) and a newline: the same bytes, with
    the flat containers and record lists each written by one call to
    json's C encoder."""
    return _json(payload, "\n") + "\n"


_SCALARS = frozenset((str, int, float, bool, type(None)))
_scalar = json.JSONEncoder(allow_nan=False).encode


@functools.cache
def _flat(separator: str) -> Callable[[object], str]:
    """json's C encoder, on one line but with ``separator`` between items."""
    return json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(separator, ": ")).encode


def _key(key) -> str:
    """A dict key as the indented encoder writes it: a string, or another
    scalar in quotes."""
    if isinstance(key, str):
        return _scalar(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_scalar(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json(value, newline: str) -> str:
    """``value`` as the indented encoder writes it where ``newline`` breaks
    its lines: the line break and the indent of its own depth."""
    if isinstance(value, dict):
        items, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = value, "[]"
    else:
        return _scalar(value)
    if not value:
        return brackets
    inner = newline + "  "
    kinds = set(map(type, items))
    if kinds <= _SCALARS:
        # scalars only: the items, one to a line
        return brackets[0] + inner + _flat("," + inner)(value)[1:-1] + newline + brackets[1]
    if (
        kinds == {dict}
        and not isinstance(value, dict)
        and all(value)
        and set(map(type, chain.from_iterable(map(dict.values, value)))) <= _SCALARS
    ):
        # records: json escapes every control character, so a line break
        # in the encoded text is an item separator, and "}," + break + "{"
        # lies between two records and nowhere else
        deeper = inner + "  "
        body = _flat("," + deeper)(value)[2:-2]
        body = body.replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
        return "[" + inner + "{" + deeper + body + inner + "}" + newline + "]"
    if isinstance(value, dict):
        parts = (_key(k) + ": " + _json(v, inner) for k, v in sorted(value.items()))
    else:
        parts = (_json(v, inner) for v in value)
    return brackets[0] + inner + ("," + inner).join(parts) + newline + brackets[1]


def tie_lines(
    left: Sequence[str], right: Sequence[str], g, tail: Callable[[int], str]
) -> Iterator[str]:
    """One line per tie (i, j) of the network ``g``, in its CSR order:
    ``left[i] + right[j] + tail(w)`` for the tie's weight ``w``, yielded
    ``TIE_CHUNK`` lines at a time, each chunk one string.

    ``tail`` is called once per distinct weight, in increasing order, and
    its text must end the line.
    """
    values = g.weights[:0]  # the distinct weights, with no sorted copy of all m
    for lo in range(0, len(g.weights), TIE_CHUNK):
        values = np.union1d(values, g.weights[lo : lo + TIE_CHUNK])
    tails = np.array([tail(w) for w in values.tolist()], dtype=object)
    left, right = np.array(left, dtype=object), np.array(right, dtype=object)
    for lo in range(0, len(g.edges), TIE_CHUNK):
        hi = min(lo + TIE_CHUNK, len(g.edges))
        # the rows from the first tie's to the last's, each once per tie of it in the chunk
        first, last = np.searchsorted(g.indptr, (lo, hi - 1), "right") - 1
        ends = np.clip(g.indptr[first : last + 2], lo, hi)
        rows = np.repeat(np.arange(first, last + 1), np.diff(ends))
        which = np.searchsorted(values, g.weights[lo:hi])
        pieces = np.column_stack((left[rows], right[g.edges[lo:hi]], tails[which]))
        yield "".join(pieces.ravel().tolist())
