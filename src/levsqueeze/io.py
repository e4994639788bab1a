"""Deterministic artifact emission: CSV tables and JSON sidecars.

All files are written atomically (temp file + rename) with LF line endings
and locale-independent number formatting, so repeated runs with identical
inputs are byte-identical. A NaN or infinity never reaches a file: both
writers raise NumericalFailure instead, before writing anything.

Every CSV cell is the text of C's NUMBER_FORMAT ("%.12g"). A numpy kernel
produces those bytes for CSV_BLOCK_CELLS cells at a time, so memory beyond
the table stays bounded at any table size. Each cell is rounded to twelve
significant digits in floating point. Only when that rounding is proven to
equal the exact decimal rounding do lookup tables spell the cell out. Any
other cell is formatted by "%" on its own. Those are near-ties, rounding
carries, magnitudes below 1e-297 and rare misestimated exponents. The bytes
therefore equal those of "%" by construction.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile

import numpy as np

from .errors import ConfigError, NumericalFailure

NUMBER_FORMAT = "%.12g"
CSV_BLOCK_CELLS = 8192

# The kernel formats each cell into a slot of three little-endian 64-bit
# words. Byte 0 holds the sign, bytes 1-4 a prefix such as "0." or "0.00"
# (or the "0" of a zero), bytes 5-17 the digits with the point inserted,
# bytes 18-22 an exponent such as "e-05" or "e+100", and byte 23 the
# separator. Unused bytes are NUL; dropping every NUL leaves the CSV text.
_WORD = np.dtype("<u8")
_SLOT = 24
_BODY = 5  # first byte of the digits in a slot
_ROW0 = 298  # exponent-table row of X = 0; row 0 also takes 0 and |x| < 1e-297
_LAYOUTS = 18 * 12  # layout classes of one sign


def _words(rows):
    """Each row of bytes (a list of equal byte strings, or a 2-D array of
    byte values) as little-endian words, one column per word."""
    if isinstance(rows, list):
        rows = np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), -1)
    return np.ascontiguousarray(rows, np.uint8).view(_WORD)


@functools.cache
def _tables():
    """Lookup tables of the CSV kernel, built on first use.

    A proven cell is |x| = M 10^(X - 11) with a 12-digit integer mantissa M,
    cut into the four-digit groups M // 10^8, M // 10^4 % 10^4 and M % 10^4.

    - `chars` and `chars_hi`, indexed by a group: its ASCII digits in bytes
      0-3 or 4-7 of a word. `last0`, `last1` and `last2`, indexed by the
      first, second and third group: the position (0-11) in M of the
      group's last nonzero digit, or 0 for a zero group.
    - `scale`, `xclass` and `suffix`, indexed by X + _ROW0: the factor
      10^(11 - X), 12 times the xclass of X, and the exponent in slot word
      2. Row 0 also holds 0 and everything below 1e-297, and lays out "0".
    - `low0` to `fill2`, indexed by the layout class 216 * negative +
      12 * xclass + last digit position. xclass is 0 for the exponent form,
      X + 5 for X in -4..11 and 17 for zero. `low` marks the body bytes
      that take the digit of their own position, `high` those that take
      the digit before it (past the point), and `fill` holds the constant
      bytes of the slot: sign, prefix and point.
    """
    tables = {}
    digit = np.frombuffer(b"0123456789", np.uint8)
    chars = np.zeros((10, 10, 10, 10, 8), np.uint8)
    chars[..., 0] = digit[:, None, None, None]
    chars[..., 1] = digit[:, None, None]
    chars[..., 2] = digit[:, None]
    chars[..., 3] = digit
    tables["chars"] = chars.view(_WORD).reshape(10000)
    tables["chars_hi"] = tables["chars"] << np.uint64(32)
    # a group's last nonzero digit: the 4th if it is nonzero, else the 3rd...
    nonzero = np.arange(10) != 0
    last = np.where(nonzero, 3, np.where(nonzero[:, None], 2, np.where(nonzero[:, None, None], 1, 0)))
    last = np.broadcast_to(last, (10, 10, 10, 10)).reshape(10000).astype(np.int8)
    for index, first in enumerate((0, 4, 8)):
        tables[f"last{index}"] = last + np.int8(first)
        tables[f"last{index}"][0] = 0

    x = range(-_ROW0, 309)
    tables["scale"] = np.array([1.0] + [float(f"1e{11 - e}") for e in x[1:]])
    xclass = [17] + [e + 5 if -4 <= e <= 11 else 0 for e in x[1:]]
    tables["xclass"] = np.array([12 * cls for cls in xclass], np.intp)
    suffixes = [b"" if cls else b"e%+03d" % e for e, cls in zip(x, xclass)]
    tables["suffix"] = _words([b"\0\0" + suffix.ljust(6, b"\0") for suffix in suffixes])[:, 0]

    # the layout classes of positive cells; a negative cell's class differs
    # only by the sign in slot byte 0
    prefix = {0: b"", 17: b"0", 1: b"0.00", 2: b"0.00", 3: b"0.0", 4: b"0."}
    low, high, slots = [], [], []
    for cls in range(18):
        e = cls - 5
        for n in range(1, 13):  # significant digits
            # the body byte that holds the point (the extra "0" after "0.00"
            # when X = -4), 16 for none, and the body's length
            if cls == 0:
                point, length = 1, n + (n > 1)
            elif cls == 17:
                point, length = 16, 0
            elif e >= 0:
                point, length = e + 1, max(n + (n > e + 1), e + 1)
            elif e == -4:
                point, length = 0, n + 1
            else:
                point, length = 16, n
            low.append((b"\xff" * min(point, length)).ljust(16, b"\0"))
            high.append((b"\0" * (point + 1) + b"\xff" * (length - point - 1)).ljust(16, b"\0")[:16])
            slot = bytearray(b"\0" + prefix.get(cls, b"")).ljust(_SLOT, b"\0")
            if point < length:
                slot[_BODY + point] = ord("0" if e == -4 else ".")
            slots.append(bytes(slot))
    tables["low0"], tables["low1"] = np.tile(_words(low), (2, 1)).T.copy()
    tables["high0"], tables["high1"] = np.tile(_words(high), (2, 1)).T.copy()
    fills = np.tile(_words(slots), (2, 1))
    fills[_LAYOUTS:, 0] |= np.uint64(ord("-"))
    tables["fill0"], tables["fill1"], tables["fill2"] = fills.T.copy()
    return tables


def _exact(cells):
    """NUMBER_FORMAT applied to each cell by itself: the kernel's fallback."""
    return [NUMBER_FORMAT % value for value in cells.tolist()]


def _round(cells):
    """Round each |cell| to twelve significant digits in floating point.

    Returns the exponent-table row of each cell's decimal exponent X, its
    mantissa M as an int64 in [1e11, 1e12), and the indices of the cells
    whose M is not proven to be the exact decimal rounding.
    """
    t = _tables()
    scaled = np.abs(cells)
    with np.errstate(divide="ignore"):
        estimate = np.log10(scaled)
    estimate += np.float64(_ROW0)
    np.maximum(estimate, np.float64(0.0), out=estimate)
    row = estimate.astype(np.intp)
    # s = |x| 10^(11 - X) lies within 2.3e-4 of its exact value, so when s
    # is within 0.499 of an integer M in [1e11, 1e12) the exact value rounds
    # to M. M is clipped there, so a wrong exponent estimate leaves s far
    # from M.
    scaled *= t["scale"].take(row, mode="clip")
    mantissa = np.rint(scaled, out=estimate)
    np.minimum(mantissa, np.float64(999999999999.0), out=mantissa)
    np.maximum(mantissa, np.float64(1e11), out=mantissa)
    scaled -= mantissa
    np.abs(scaled, out=scaled)
    return row, mantissa.astype(np.int64), np.flatnonzero(scaled >= np.float64(0.499))


def _digits(mantissa):
    """The ASCII digits of each mantissa as words (digits 1-8 and 9-12),
    and the position of its last nonzero digit (int8). Overwrites
    `mantissa`."""
    t = _tables()
    low = mantissa
    high = low // np.int64(100000000)
    low -= high * np.int64(100000000)
    mid = low // np.int64(10000)
    low -= mid * np.int64(10000)
    first = t["chars"].take(high, mode="clip")
    first |= t["chars_hi"].take(mid, mode="clip")
    last = t["last0"].take(high, mode="clip")
    np.maximum(last, t["last1"].take(mid, mode="clip"), out=last)
    np.maximum(last, t["last2"].take(low, mode="clip"), out=last)
    return first, t["chars"].take(low, mode="clip"), last


def _lay_out(cells, row, d0, d1, last, ends):
    """The 24-byte slots of the cells, in a new bytearray, from the outputs
    of _round and _digits. Overwrites the digit words `d0` and `d1`."""
    t = _tables()
    layout = t["xclass"].take(row, mode="clip")
    layout += last
    layout += (cells.view(np.int64) >> np.int64(63)) & np.int64(_LAYOUTS)  # the sign
    # the 12 digits as a 128-bit word pair d, and d moved up one byte; the
    # body takes d below the point and the moved digits past it
    s0 = d0 << np.uint64(8)
    s1 = d1 << np.uint64(8)
    s1 |= d0 >> np.uint64(56)
    d0 &= t["low0"].take(layout, mode="clip")
    s0 &= t["high0"].take(layout, mode="clip")
    d0 |= s0
    d1 &= t["low1"].take(layout, mode="clip")
    s1 &= t["high1"].take(layout, mode="clip")
    d1 |= s1
    del s1  # before the slot buffer is allocated

    buffer = bytearray(cells.size * _SLOT)
    slot = np.frombuffer(buffer, _WORD).reshape(cells.size, 3)
    np.left_shift(d0, np.uint64(8 * _BODY), out=s0)
    np.bitwise_or(s0, t["fill0"].take(layout, mode="clip"), out=slot[:, 0])
    d0 >>= np.uint64(64 - 8 * _BODY)
    np.left_shift(d1, np.uint64(8 * _BODY), out=s0)
    d0 |= s0
    np.bitwise_or(d0, t["fill1"].take(layout, mode="clip"), out=slot[:, 1])
    d1 >>= np.uint64(64 - 8 * _BODY)
    d1 |= t["fill2"].take(layout, mode="clip")
    d1 |= t["suffix"].take(row, mode="clip")
    np.bitwise_or(d1, ends, out=slot[:, 2])
    return buffer


def _format_block(cells, ends):
    """The CSV bytes of the 1-D float64 array `cells`, each cell followed by
    its separator, which is the top byte of the matching word of `ends`."""
    # each stage frees its temporaries before the next allocates, which
    # keeps a block's peak memory near 0.7 MB
    row, mantissa, inexact = _round(cells)
    digits = _digits(mantissa)
    del mantissa
    buffer = _lay_out(cells, row, *digits, ends)
    del row, digits
    # every cell not proven is formatted by "%"; a zero is laid out as "0"
    inexact = inexact[cells[inexact] != 0.0]
    if inexact.size:
        text = b"".join(value.encode().ljust(_SLOT - 1, b"\0") for value in _exact(cells[inexact]))
        slot = np.frombuffer(buffer, np.uint8).reshape(cells.size, _SLOT)
        slot[inexact, : _SLOT - 1] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT - 1)
    return buffer.translate(None, b"\0")


def _atomic_write(path, parts):
    """Write the bytes of the iterable `parts` to a temp file, then rename
    it to `path`; an exception while writing leaves no file behind. A
    directory that cannot be made or written into, and a `path` the rename
    cannot replace (a directory, say), are ConfigErrors."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write a table of numbers under `header`: `rows` is a 2-D array (or a
    list of equal rows) with one column per header name; an empty list or a
    table of no rows gives a header-only file. Any other shape raises
    ValueError. Every cell is NUMBER_FORMAT, which prints integers below
    1e12 as they are. The body is formatted and written CSV_BLOCK_CELLS
    cells at a time by a numpy kernel that emits exactly the bytes of "%",
    so memory beyond the table stays bounded at any table size."""
    table = np.asarray(rows, dtype=np.float64)
    if table.shape == (0,):
        table = table.reshape(0, len(header))
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"{os.path.basename(path)}: table of shape {table.shape} for {len(header)} columns")
    if not np.isfinite(table).all():
        raise NumericalFailure(f"non-finite value in {os.path.basename(path)}")
    cells = table.ravel()
    # each cell's separator, in the top byte of its slot's last word
    ends = np.full(len(header), ord(","), _WORD)
    ends[-1:] = ord("\n")
    ends = np.tile(ends << np.uint64(56), min(cells.size, CSV_BLOCK_CELLS) // max(len(header), 1) + 2)

    def blocks():
        yield (",".join(header) + "\n").encode()
        for start in range(0, cells.size, CSV_BLOCK_CELLS):
            block = cells[start : start + CSV_BLOCK_CELLS]
            offset = start % len(header)
            yield _format_block(block, ends[offset : offset + block.size])

    _atomic_write(path, blocks())


def write_json(path, payload):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # allow_nan=False: NaN or infinity in the payload
        raise NumericalFailure(f"{os.path.basename(path)}: {exc}") from None
    _atomic_write(path, [(text + "\n").encode()])
