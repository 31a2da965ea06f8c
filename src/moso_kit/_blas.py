"""Factor and solve the small kernel systems on one BLAS thread.

From 128 centers OpenBLAS factors in parallel and waits for its idle
threads to wake: 100-300 ms a Cholesky factor instead of 0.2 ms on a
loaded 2-core machine.  ``one_thread`` sets the OpenBLAS that scipy
wheels bundle to one thread for a block (the result is then the one
OPENBLAS_NUM_THREADS=1 gives); other BLAS builds are left as they are.

``cho_factor`` and ``cho_solve`` call LAPACK's ``dpotrf`` and ``dpotrs``
in that same library through ctypes, with the arguments
``scipy.linalg.cho_factor(a, lower=True, overwrite_a=True)`` and
``scipy.linalg.cho_solve`` pass, so they give scipy's bits without
importing ``scipy.linalg``.  Where the library or either routine is
missing (scipy not installed from a wheel that bundles it), they import
``scipy.linalg`` at their first call and use it instead.
"""

import contextlib
import ctypes
import glob
import os
import threading

import numpy as np
import scipy

_INT = ctypes.POINTER(ctypes.c_int)


def _symbols(*names):
    """The named functions of scipy's bundled OpenBLAS, or Nones if any is missing."""
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(os.path.dirname(scipy.__file__), os.pardir,
                                                 "scipy.libs", "libscipy_openblas*.so"))[0])
        return [getattr(lib, name) for name in names]
    except (IndexError, OSError, AttributeError):
        return [None] * len(names)


_get_threads, _set_threads = _symbols("scipy_openblas_get_num_threads",
                                      "scipy_openblas_set_num_threads")
if _get_threads is not None:
    _get_threads.argtypes, _get_threads.restype = [], ctypes.c_int
    _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None
# LAPACK with 32-bit integers; the trailing size_t is gfortran's hidden
# length of the character argument, which a C implementation ignores.
_potrf, _potrs = _symbols("scipy_dpotrf_", "scipy_dpotrs_")
if _potrf is not None:
    _potrf.argtypes = [ctypes.c_char_p, _INT, ctypes.c_void_p, _INT, _INT, ctypes.c_size_t]
    _potrs.argtypes = [ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p,
                       _INT, _INT, ctypes.c_size_t]
    _potrf.restype = _potrs.restype = None
# The thread count is process-wide: one block at a time sets and restores it.
_LOCK = threading.Lock()


def thread_count():
    """The thread count of scipy's bundled OpenBLAS, or None if it is not found."""
    if _get_threads is None:
        return None
    with _LOCK:
        return _get_threads()


@contextlib.contextmanager
def one_thread():
    """Run the block with scipy's bundled OpenBLAS, if found, on one thread."""
    if _set_threads is None:
        yield
        return
    with _LOCK:
        previous = _get_threads()
        _set_threads(1)
        try:
            yield
        finally:
            _set_threads(previous)


def cho_factor(a: np.ndarray):
    """``scipy.linalg.cho_factor(a, lower=True, overwrite_a=True)`` of a finite matrix.

    ``a`` is a square, Fortran-ordered float64 array; it is factored in
    place and returned as ``(a, True)``.  Raises ``np.linalg.LinAlgError``
    when ``a`` is not positive definite.
    """
    if _potrf is None:
        from scipy.linalg import cho_factor as factor
        return factor(a, lower=True, overwrite_a=True)
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] and a.flags.f_contiguous
            and a.flags.writeable and a.dtype == np.float64):
        raise ValueError("cho_factor needs a square, writeable, Fortran-ordered float64 array")
    n, info = ctypes.c_int(len(a)), ctypes.c_int(0)
    _potrf(b"L", n, a.ctypes.data, n, info, 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"{info.value}-th leading minor of the array is not positive definite")
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpotrf")
    return a, True


def cho_solve(cho, b) -> np.ndarray:
    """``scipy.linalg.cho_solve(cho, b)``: the solution of ``A x = b`` from A's factor.

    ``cho`` is ``(c, lower)`` from ``cho_factor``; ``b`` is (N,) or (N, k)
    and is not modified.  The solution is a new Fortran-ordered array.
    """
    if _potrs is None:
        from scipy.linalg import cho_solve as solve
        return solve(cho, b)
    c, lower = cho
    c = np.asfortranarray(c, dtype=np.float64)
    x = np.array(b, dtype=np.float64, order="F")
    if c.ndim != 2 or c.shape[0] != c.shape[1] or x.ndim not in (1, 2) or len(x) != len(c):
        raise ValueError(f"incompatible dimensions ({c.shape} and {x.shape})")
    n, info = ctypes.c_int(len(c)), ctypes.c_int(0)
    nrhs = ctypes.c_int(1 if x.ndim == 1 else x.shape[1])
    _potrs(b"L" if lower else b"U", n, nrhs, c.ctypes.data, n, x.ctypes.data, n, info, 1)
    if info.value != 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpotrs")
    return x
