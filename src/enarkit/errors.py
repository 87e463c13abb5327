"""Exception types shared across the package."""

from __future__ import annotations


class EnarkitError(Exception):
    """Base class for all enarkit errors."""


class InvalidProbability(EnarkitError):
    """An edge probability fell outside [0, 1]."""

    def __init__(self, i: int, j: int, p: float):
        self.i, self.j, self.p = i, j, p
        super().__init__(f"edge probability p[{i},{j}] = {p!r} is outside [0, 1]")


class EigConvergenceFailure(EnarkitError):
    """The iterative eigensolver failed to converge."""


class ShapeMismatch(EnarkitError):
    """Two arrays that must share a shape do not."""


class NotStationary(EnarkitError):
    """|alpha| + |theta| >= 1: no stationary solution exists."""


class DimensionMismatch(EnarkitError):
    """Inputs have incompatible dimensions."""


class RankDeficient(EnarkitError):
    """The design matrix is numerically rank deficient."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"design matrix is rank deficient in columns {self.columns}")


class ZeroDenominator(EnarkitError):
    """A relative-error denominator is zero."""


class EmptyGroup(EnarkitError):
    """A summary was requested over an empty group."""


class DataError(EnarkitError):
    """A data file failed to parse or validate."""


def check_type(value, types: tuple, what: str):
    """``value`` if it is an instance of one of ``types``, else a
    :class:`DataError` naming ``what``. A bool passes only where ``bool`` is
    listed: JSON true and false load as bool, which Python counts as an int,
    so ``(int, float)`` takes a number and ``(int,)`` an integer, neither a
    bool."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = "/".join(t.__name__ for t in types)
        raise DataError(f"{what} has type {type(value).__name__}, expected {expected}")
    return value
