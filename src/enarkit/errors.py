"""Exception types shared across the package, the one JSON loader and the
one JSON type checker. Every error belongs to one of two families, which
carry the CLI's exit codes: DataError (3) for input that fails to validate
and NumericalError (4) for a computation that fails.
"""

from __future__ import annotations

import json


class EnarkitError(Exception):
    """Base class for all enarkit errors."""


class DataError(EnarkitError):
    """A data file or a config failed to parse or validate."""

    exit_code = 3


class NumericalError(EnarkitError):
    """A numerical computation cannot proceed on its inputs."""

    exit_code = 4


class InvalidProbability(NumericalError):
    """An edge probability fell outside [0, 1]."""

    def __init__(self, i: int, j: int, p: float):
        self.i, self.j, self.p = i, j, p
        super().__init__(f"edge probability p[{i},{j}] = {p!r} is outside [0, 1]")


class EigConvergenceFailure(NumericalError):
    """The iterative eigensolver failed."""


class ShapeMismatch(DataError):
    """Two arrays that must share a shape do not."""


class NotStationary(NumericalError):
    """|alpha| + |theta| >= 1: no stationary solution exists."""


class DimensionMismatch(DataError):
    """Inputs have incompatible dimensions."""


class RankDeficient(NumericalError):
    """The design matrix is numerically rank deficient."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"design matrix is rank deficient in columns {self.columns}")


class ZeroDenominator(NumericalError):
    """A relative-error denominator is zero."""


class EmptyGroup(DataError):
    """A summary was requested over an empty group."""


NUMBER = (int, float)  # a JSON number for check_type: an int or a float, not a bool


def check_type(value, types: tuple | list, what: str):
    """``value`` if it is an instance of one of ``types``, else a
    :class:`DataError` naming ``what``; ``[types]`` takes a list whose
    elements each are, so ``[[types]]`` takes a list of such lists. A bool
    passes only where ``bool`` is listed: JSON true and false load as bool,
    which Python counts as an int, so ``(int, float)`` takes a number and
    ``(int,)`` an integer, neither a bool."""
    if isinstance(types, list):
        check_type(value, (list,), what)
        # one pass over the element types; walk only to name a bad one or into nested lists
        if isinstance(types[0], list) or not set(map(type, value)) <= set(types[0]):
            for i, element in enumerate(value):
                check_type(element, types[0], f"{what} element {i}")
        return value
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = "/".join(t.__name__ for t in types)
        raise DataError(f"{what} has type {type(value).__name__}, expected {expected}")
    return value


def load_json(path: str) -> dict:
    """The JSON object in the file at ``path``, or a :class:`DataError` naming
    the file; a file that cannot be read raises its ``OSError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc.reason}") from exc
    return check_type(doc, (dict,), f"{path}: the top level")
