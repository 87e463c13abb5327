"""One BLAS thread for the Monte Carlo grid.

numpy and scipy each bundle their own OpenBLAS, with its own thread pool:
numpy's ``numpy.libs/libscipy_openblas64_*.so`` and scipy's
``scipy.libs/libscipy_openblas-*.so``. Rounding in a dense eigensolve
depends on how many threads split it, so seeded output changes with the
thread count unless both pools run one thread. Their thread setters are
reached through ctypes; where a library or setter is missing (another BLAS
build), nothing is pinned and the callers report that.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy
import scipy

# (package, library file pattern in its ".libs" directory, symbol suffix)
_POOLS = (
    (numpy, "libscipy_openblas64_*.so", "64_"),
    (scipy, "libscipy_openblas-*.so", ""),
)


@functools.cache
def _thread_controls() -> tuple[tuple, ...] | None:
    """(setter, getter) of each bundled OpenBLAS pool, or None unless every
    pool has both. Looked up once per process: the libraries stay loaded,
    and the lookup (a glob and a ``CDLL`` per pool) costs more than the
    block a caller pins."""
    controls = []
    for package, pattern, suffix in _POOLS:
        paths = glob.glob(os.path.join(os.path.dirname(package.__file__) + ".libs", pattern))
        if len(paths) != 1:
            return None
        lib = ctypes.CDLL(paths[0])  # the copy the package already loaded
        try:
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        except AttributeError:
            return None
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        controls.append((setter, getter))
    return tuple(controls)


def pinned_threads() -> int | None:
    """The thread count ``one_thread`` holds each pool at: 1, or None where
    it finds no setters and pins nothing."""
    return 1 if _thread_controls() is not None else None


@contextlib.contextmanager
def one_thread():
    """Run the block with every bundled OpenBLAS pool on one thread, and put
    back each pool's previous count on exit, also when the block raises."""
    controls = _thread_controls() or []
    before = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), count in zip(controls, before):
            setter(count)


def pin_worker() -> None:
    """Pool-worker initializer: one BLAS thread for the worker's whole life.

    Never restored, because the worker exits with its pool; restoring after
    each task would start the BLAS threads again in every child.
    """
    for setter, _ in _thread_controls() or []:
        setter(1)
