"""The bytes of every written artifact: one CSV dialect, one JSON layout.

CSV has a header row and ``\\n``-terminated rows. The ``csv`` module
writes a float as ``repr`` does, in its shortest round-trip form, so a
float column reads back to the same bits. JSON has sorted keys, a
two-space indent and a trailing newline, and never holds NaN or Infinity,
which are not JSON.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``header``, then one line per row of ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
