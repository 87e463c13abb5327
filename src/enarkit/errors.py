"""Exception types shared across the package. Every error belongs to one
of two families, which carry the CLI's exit codes: DataError (3) for input
that fails to validate and NumericalError (4) for a computation that fails.
"""

from __future__ import annotations


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


def check_type(value, types: tuple | list, what: str):
    """``value`` if it is an instance of one of ``types``, else a
    :class:`DataError` naming ``what``; ``[types]`` takes a list whose
    elements each are. A bool passes only where ``bool`` is listed: JSON
    true and false load as bool, which Python counts as an int, so
    ``(int, float)`` takes a number and ``(int,)`` an integer, neither a
    bool."""
    if isinstance(types, list):
        for i, element in enumerate(check_type(value, (list,), what)):
            check_type(element, types[0], f"{what} element {i}")
        return value
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = "/".join(t.__name__ for t in types)
        raise DataError(f"{what} has type {type(value).__name__}, expected {expected}")
    return value
