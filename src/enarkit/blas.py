"""One BLAS thread for the Monte Carlo grid.

numpy and scipy each bundle their own OpenBLAS, with its own thread pool:
numpy's ``numpy.libs/libscipy_openblas64_*.so`` and scipy's
``scipy.libs/libscipy_openblas-*.so``. Rounding in a dense eigensolve
depends on how many threads split it, so seeded output changes with the
thread count unless both pools run one thread. Their thread setters are
reached through ctypes; where a library or setter is missing (another BLAS
build), nothing is pinned and the callers report that.

Each library also keeps helper threads, which OpenBLAS's fork handler
(``blas_thread_shutdown_``) stops before a fork, leaving the library's
``blas_server_avail`` at 0. A setter call on a stopped pool starts them
again, whatever count it sets, so every count change here writes a stopped
pool's ``blas_cpu_number`` (the count the getter reads and a BLAS call
splits its work by) in place of the setter call, and OpenBLAS starts the
helpers itself when a call next splits work. No enarkit call therefore
starts a helper. The pool-worker initializer stops a worker's helpers
first (a spawned worker's are running), so a worker runs one OS thread for
its whole life. The three symbols are OpenBLAS internals, not API; where
one is missing, the setter sets every count and a worker's helpers stay,
idle.
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
    """(setter, getter, stop) of each bundled OpenBLAS pool, or None unless
    every pool has a setter and a getter. ``stop`` is the pool's
    (``blas_thread_shutdown_``, ``blas_server_avail``, ``blas_cpu_number``),
    or None where the library lacks any of them. Looked up once per process:
    the libraries stay loaded, and the lookup (a glob and a ``CDLL`` per
    pool) costs more than the block a caller pins."""
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
        try:
            shutdown = lib.blas_thread_shutdown_
            running = ctypes.c_int.in_dll(lib, "blas_server_avail")
            count = ctypes.c_int.in_dll(lib, "blas_cpu_number")
        except (AttributeError, ValueError):  # a missing function, a missing variable
            stop = None
        else:
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            stop = (shutdown, running, count)
        controls.append((setter, getter, stop))
    return tuple(controls)


def _set_count(setter, stop, threads: int) -> None:
    """Set one pool's thread count without starting its helpers: on a pool
    whose helpers are stopped, the setter would start them, so write the
    count instead."""
    if stop is not None and stop[1].value == 0:
        stop[2].value = threads
    else:
        setter(threads)


def pinned_threads() -> int | None:
    """The thread count ``one_thread`` holds each pool at: 1, or None where
    it finds no setters and pins nothing."""
    return 1 if _thread_controls() is not None else None


@contextlib.contextmanager
def one_thread():
    """Run the block with every bundled OpenBLAS pool on one thread, and put
    back each pool's previous count on exit, also when the block raises.
    Helpers that a fork in the block stopped stay stopped until a BLAS call
    splits work again."""
    controls = _thread_controls() or []
    before = [getter() for _, getter, _ in controls]
    for setter, _, stop in controls:
        _set_count(setter, stop, 1)
    try:
        yield
    finally:
        for (setter, _, stop), count in zip(controls, before):
            _set_count(setter, stop, count)


def pin_worker() -> None:
    """Pool-worker initializer: one BLAS thread for the worker's whole life,
    and no helper threads left waiting beside it.

    Never restored, because the worker exits with its pool.
    """
    for setter, _, stop in _thread_controls() or []:
        if stop is not None:
            stop[0]()  # joins a spawned worker's helpers; a forked one has none
        _set_count(setter, stop, 1)
