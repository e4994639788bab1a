"""Deterministic artifact emission: CSV tables and JSON sidecars.

All files are written atomically (temp file + rename) with LF line endings
and locale-independent number formatting, so repeated runs with identical
inputs are byte-identical. A NaN or infinity never reaches a file: both
writers raise NumericalFailure instead, before writing anything.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import NumericalFailure

NUMBER_FORMAT = "%.12g"
CSV_BLOCK_ROWS = 4096


def _atomic_write(path, parts):
    """Write the strings of the iterable `parts` to a temp file, then rename
    it to `path`; an exception while writing leaves no file behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write a table of numbers under `header`: `rows` is a 2-D array (or a
    list of equal rows) with one column per header name. Every cell is
    NUMBER_FORMAT, which prints integers below 1e12 as they are. The body is
    formatted and written CSV_BLOCK_ROWS rows at a time."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    if not np.isfinite(table).all():
        raise NumericalFailure(f"non-finite value in {os.path.basename(path)}")
    line = ",".join([NUMBER_FORMAT] * len(header)) + "\n"

    def blocks():
        yield ",".join(header) + "\n"
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            yield "".join(line % row for row in map(tuple, table[start : start + CSV_BLOCK_ROWS].tolist()))

    _atomic_write(path, blocks())


def write_json(path, payload):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # allow_nan=False: NaN or infinity in the payload
        raise NumericalFailure(f"{os.path.basename(path)}: {exc}") from None
    _atomic_write(path, [text + "\n"])
