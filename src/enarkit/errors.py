"""Exception types shared across the package, and the one JSON loader,
writer and type checker. Every error belongs to one of two families, which
carry the CLI's exit codes: DataError (3) for input that fails to validate
and NumericalError (4) for a computation that fails.
"""

from __future__ import annotations

import json

from .atomic import atomic_write


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


NUMBER = (int, float)  # a JSON number for check_type: finite in a double, not a bool
_DOUBLE_MAX = 1.7976931348623157e308  # no NaN, infinity or larger int is at most this


def check_type(value, types: tuple | list, what: str):
    """``value`` if it is an instance of one of ``types``, else a
    :class:`DataError` naming ``what``; ``[types]`` takes a list whose
    elements each are, so ``[[types]]`` takes a list of such lists. A bool
    passes only where ``bool`` is listed: JSON true and false load as bool,
    which Python counts as an int, so ``(int, float)`` takes a number and
    ``(int,)`` any integer, neither a bool. Where ``float`` is listed, as
    in ``NUMBER``, the value must also be finite in a double."""
    if isinstance(types, list):
        check_type(value, (list,), what)
        # one pass over the types and values; walk only to name a bad one or into nested lists
        if (isinstance(types[0], list) or not set(map(type, value)) <= set(types[0])
                or (float in types[0] and not all(abs(v) <= _DOUBLE_MAX for v in value))):
            for i, element in enumerate(value):
                check_type(element, types[0], f"{what} element {i}")
        return value
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = "/".join(t.__name__ for t in types)
        raise DataError(f"{what} has type {type(value).__name__}, expected {expected}")
    if float in types and not abs(value) <= _DOUBLE_MAX:
        shown = (repr(float(value)) if isinstance(value, float)
                 else "an integer beyond the double range")
        raise DataError(f"{what} is {shown}, not a finite number")
    return value


def load_json(path: str) -> dict:
    """The JSON object in the file at ``path``, or a :class:`DataError` naming
    the file; a file that cannot be read raises its ``OSError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:  # bad UTF-8, or an integer over Python's digit limit
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    return check_type(doc, (dict,), f"{path}: the top level")


def json_value(v):
    """``v`` as strict JSON holds it: None, strings, bools and ints as they
    are, any other number as a float, and a float that is not finite as
    None."""
    if v is None or isinstance(v, (str, bool, int)):
        return v
    v = float(v)
    return v if abs(v) <= _DOUBLE_MAX else None


def write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as strict JSON (atomic replace): the keys indented, and
    a ``latent`` block last, one compact row per line, so that its floats go
    through the C encoder rather than the pure-Python indenting one."""
    rest = {key: value for key, value in doc.items() if key != "latent"}
    if "latent" not in doc:
        text = json.dumps(rest, indent=2, allow_nan=False)
    else:  # a placeholder 0 holds the block's place, last
        rows = json.dumps(doc["latent"], allow_nan=False)[1:-1].replace("], [", "],\n    [")
        text = json.dumps({**rest, "latent": 0}, indent=2, allow_nan=False)[:-3]
        text += f"[\n    {rows}\n  ]\n}}" if rows else "[]\n}"
    with atomic_write(path) as fh:
        fh.write(text + "\n")
