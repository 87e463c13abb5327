"""CSV tables: one header line over rows of numbers and identifiers.

Reading splits the file into lines once, drops blank lines and parses whole
columns with numpy's C loader ``np.loadtxt``; when a parse fails, the first
offending line is found afterwards, so every error still names the file row
it came from. ``write_table``, the one CSV writer, formats each row from one
template, ends lines in CRLF and replaces the file atomically.
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Iterable, Sequence
from itertools import islice

import numpy as np

from .atomic import atomic_write
from .errors import DataError


class Table:
    """Header fields (``None`` for an empty file) and the non-blank data
    lines of a CSV file. Line ends may be LF or CRLF."""

    def __init__(self, path: str):
        self.path = path
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
        self.header = next(csv.reader(lines[:1]), None)
        self._body = lines[1:]
        self.lines = list(filter(str.strip, self._body))

    def where(self, j: int) -> str:
        """``"<path>: row <r>"`` for ``self.lines[j]``, counting the header
        as row 1 and blank lines as rows."""
        rows = [r for r, line in enumerate(self._body, start=2) if line.strip()]
        return f"{self.path}: row {rows[j]}"


def load_columns(
    lines: Sequence[str], usecols: Sequence[int], dtype, describe: Callable[[int], str]
) -> np.ndarray:
    """Columns ``usecols`` of comma-separated ``lines``: one record per line
    for a structured ``dtype``, else a (lines x columns) array.

    If a line lacks a column or holds a field that does not parse, raises
    ``DataError(describe(j))`` for the first such line ``j``. Lines parse
    independently, so it is found by bisection in about one more pass.
    """
    ndmin = 1 if np.dtype(dtype).names else 2

    def parse(chunk):
        return np.loadtxt(
            chunk, delimiter=",", usecols=usecols, dtype=dtype, comments=None, ndmin=ndmin
        )

    try:
        return parse(lines)
    except ValueError:
        pass
    lo, hi = 0, len(lines)  # lines[:lo] parse; lines[lo:hi] holds a failure
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(lines[lo:mid])
        except ValueError:
            hi = mid
        else:
            lo = mid
    raise DataError(describe(lo))


def repeated_rows(*keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows whose tuple of ``keys`` values already
    appeared on an earlier row."""
    order = np.lexsort(keys[::-1])  # stable, so equal tuples keep row order
    same = np.ones(max(order.size - 1, 0), dtype=bool)
    for key in keys:
        ranked = key[order]
        same &= ranked[1:] == ranked[:-1]
    return np.sort(order[1:][same])


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as comma-separated lines ending in CRLF
    (atomic replace). Fields are written by ``str``, which for a float or a
    numpy float64 is its shortest round-trip ``repr``, and never quoted, so
    none may hold a comma, a double quote or a line break. A row whose width
    differs from the header's raises ``TypeError`` and leaves ``path`` as it was."""
    template = ",".join(["%s"] * len(header)) + "\r\n"
    lines = map(template.__mod__, map(tuple, rows))
    with atomic_write(path, newline="") as fh:
        fh.write(template % tuple(header))
        while batch := "".join(islice(lines, 2048)):  # no whole-file list
            fh.write(batch)
