"""CSV tables: one header line over rows of numbers and identifiers.

Reading splits the file into lines once, drops blank lines and parses whole
columns with numpy's C loader ``np.loadtxt``; when a parse fails, the first
offending line is found afterwards, so every error still names the file row
it came from. Writing formats each float by ``repr`` (an exact round trip),
ends lines in CRLF and replaces the file atomically.
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Iterable, Sequence

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


_FLOATS = (float, np.floating)


def _field(value) -> str:
    # repr of a numpy float reads "np.float64(...)", so convert first
    return repr(float(value)) if isinstance(value, _FLOATS) else str(value)


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as comma-separated lines ending in CRLF
    (atomic replace). Floats are written as ``repr(float(v))``, everything
    else by ``str``. Fields are never quoted, so none may hold a comma, a
    double quote or a line break."""
    with atomic_write(path, newline="") as fh:
        lines = [",".join(header)] + [",".join(map(_field, row)) for row in rows]
        fh.write("\r\n".join(lines) + "\r\n")
