"""Factor the small kernel systems on one BLAS thread.

From 128 centers OpenBLAS factors in parallel and waits for its idle
threads to wake: 100-300 ms a Cholesky factor instead of 0.2 ms on a
loaded 2-core machine.  ``one_thread`` sets the OpenBLAS that scipy
wheels bundle to one thread for a block (the result is then the one
OPENBLAS_NUM_THREADS=1 gives); other BLAS builds are left as they are.
"""

import contextlib
import ctypes
import glob
import os
import threading

import scipy

try:
    _lib = ctypes.CDLL(glob.glob(os.path.join(os.path.dirname(scipy.__file__), os.pardir,
                                              "scipy.libs", "libscipy_openblas*.so"))[0])
    _get_threads = _lib.scipy_openblas_get_num_threads
    _set_threads = _lib.scipy_openblas_set_num_threads
except (IndexError, OSError, AttributeError):
    _get_threads, _set_threads = None, None
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
