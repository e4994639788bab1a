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

from .errors import NumericalFailure

NUMBER_FORMAT = "%.12g"


def _atomic_write(path, *parts):
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
    """Write rows of numbers under `header`. Every cell is NUMBER_FORMAT,
    which prints integers below 1e12 as they are."""
    line = ",".join([NUMBER_FORMAT] * len(header)) + "\n"
    body = "".join(line % tuple(row) for row in rows)
    # NUMBER_FORMAT prints non-finite values as nan, inf or -inf, the only
    # cells holding an "n", so one scan of the body finds them all.
    if "n" in body:
        raise NumericalFailure(f"non-finite value in {os.path.basename(path)}")
    _atomic_write(path, ",".join(header) + "\n", body)


def write_json(path, payload):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # allow_nan=False: NaN or infinity in the payload
        raise NumericalFailure(f"{os.path.basename(path)}: {exc}") from None
    _atomic_write(path, text + "\n")
