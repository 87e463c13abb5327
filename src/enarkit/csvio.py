"""CSV tables: one header line over rows of numbers and identifiers.

Files are read as UTF-8 and streamed: ``read_table`` checks the header's
leading fields, each stripped of surrounding whitespace, and yields the body
in chunks of at most ``CHUNK_LINES`` physical lines, so only one chunk's text
is held at a time. A line ends at LF, CR or CRLF. Blank and whitespace-only
lines are skipped but still counted, so every error names the file row it
came from, the header being row 1. ``np.loadtxt`` parses in C the leading
columns that a record dtype names; when a parse fails, the offending lines
are found afterwards by halving. An error found after parsing names its row
by streaming the file again (``row_of``). ``write_table``, the one CSV
writer, formats each row from one template, ends lines in CRLF and replaces
the file atomically.
"""

from __future__ import annotations

import contextlib
import csv
import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import filterfalse, islice

import numpy as np

from .atomic import atomic_write
from .errors import DataError

CHUNK_LINES = 4096  # physical lines read and parsed at a time
_ENDS = "\r\n"


class Chunk:
    """Consecutive physical lines of a CSV body, the first being file row
    ``row``; ``lines`` holds the non-blank ones, line ends kept."""

    def __init__(self, path: str, raw: list[str], row: int):
        self.path, self._raw, self._row = path, raw, row
        self.lines = list(filterfalse(str.isspace, raw))

    def where(self, j: int) -> str:
        """``"<path>: row <r>"`` for ``self.lines[j]``."""
        rows = [r for r, line in enumerate(self._raw, start=self._row) if not line.isspace()]
        return f"{self.path}: row {rows[j]}"

    def load(self, dtype, what: str = "") -> np.ndarray:
        """``self.lines`` as records of ``dtype``, as :func:`parse_lines` gives
        them; the first line that does not parse raises ``DataError`` naming
        its row and quoting it after ``"cannot parse <what>"``."""
        values, ok = parse_lines(self.lines, dtype)
        if not ok.all():
            j = int(ok.argmin())
            raise DataError(f"{self.where(j)}: cannot parse {what}{self.lines[j].rstrip(_ENDS)!r}")
        return values


@contextlib.contextmanager
def read_table(path: str, names: Sequence[str]) -> Iterator[tuple[list[str], Iterator[Chunk]]]:
    """The header fields of the CSV file at ``path``, each stripped of
    surrounding whitespace, and an iterator over its body in :class:`Chunk` s
    of ``CHUNK_LINES`` lines, valid inside the ``with`` block. A header that
    does not begin with the fields ``names`` raises ``DataError``, and so
    does a byte that is not UTF-8, naming its row."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            fields = next(csv.reader([fh.readline().rstrip(_ENDS)]), [])
            header = [field.strip() for field in fields]
            if header[: len(names)] != list(names):
                raise DataError(f"{path}: expected header '{','.join(names)},...', got {header}")
            yield header, _chunks(path, fh)
    except UnicodeDecodeError:
        raise DataError(_undecodable(path)) from None


def _chunks(path: str, fh) -> Iterator[Chunk]:
    row = 2
    while raw := list(islice(fh, CHUNK_LINES)):
        yield Chunk(path, raw, row)
        row += len(raw)


def _undecodable(path: str) -> str:
    """``"<path>: row <r>: ..."`` for the first row of the file at ``path``
    that is not UTF-8, counting rows as :func:`read_table` does."""
    row = 0
    with open(path, "rb") as fh:
        for block in fh:  # ends at LF; splitlines also splits at CR
            for line in block.splitlines():
                row += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return f"{path}: row {row}: not UTF-8: {exc}"
    return f"{path}: not UTF-8"


def row_of(path: str, j: int) -> str:
    """``"<path>: row <r>"`` for data line ``j`` of the CSV file at ``path``,
    counting from 0 and skipping blank lines, found by streaming the file
    again; its header is not read."""
    with open(path, encoding="utf-8", newline="") as fh:
        fh.readline()
        for chunk in _chunks(path, fh):
            if j < len(chunk.lines):
                return chunk.where(j)
            j -= len(chunk.lines)
    raise IndexError(j)


class Rows:
    """Records of one ``dtype`` appended chunk by chunk into one array,
    which doubles when full."""

    def __init__(self, dtype):
        self._dtype = dtype  # a subarray dtype adds its shape to the array's
        self._buf = np.empty(0, dtype)
        self.size = 0

    def add(self, count: int) -> np.ndarray:
        """The next ``count`` records, for the caller to fill."""
        end = self.size + count
        if end > len(self._buf):
            grown = np.empty(max(end, 2 * len(self._buf)), self._dtype)
            grown[: self.size] = self._buf[: self.size]
            self._buf = grown
        block = self._buf[self.size : end]
        self.size = end
        return block

    def array(self) -> np.ndarray:
        """The records added so far (a view)."""
        return self._buf[: self.size]


def parse_lines(lines: Sequence[str], dtype) -> tuple[np.ndarray, np.ndarray]:
    """Comma-separated ``lines`` as records of the structured ``dtype``, and
    a mask of the lines that parse. A record reads the leading columns that
    its fields name: one for a scalar field, and as many as its size for a
    subarray field; later columns are not read. A line that lacks a column
    or holds a field that does not parse is left unset. Lines parse
    independently, so the failures are isolated by halving."""
    values = np.empty(len(lines), dtype)
    usecols = range(sum(math.prod(values.dtype[name].shape) for name in values.dtype.names))
    ok = np.ones(len(lines), dtype=bool)
    spans = [(0, len(lines))] if lines else []
    while spans:
        a, b = spans.pop()
        try:
            values[a:b] = np.loadtxt(
                lines[a:b], delimiter=",", usecols=usecols, dtype=dtype, comments=None, ndmin=1
            )
        except ValueError:
            if b - a == 1:
                ok[a] = False
            else:
                spans += [((a + b) // 2, b), (a, (a + b) // 2)]
    return values, ok


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
