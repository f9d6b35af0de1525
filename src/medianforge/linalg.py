"""Small SPD-matrix helpers used throughout the package, and the OpenBLAS
thread pin for the experiment pool and the command line."""

import ctypes
import functools
import os
from contextlib import contextmanager

import numpy as np

from .errors import DimensionMismatch, NotSPD

SYMMETRY_RTOL = 1e-12


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square {name}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NotSPD(f"{name} has non-finite entries")
    return a


def check_spd(m, name: str = "matrix") -> np.ndarray:
    """Validate symmetry (relative tolerance 1e-12) and positive definiteness.

    Returns the symmetrized matrix; raises NotSPD otherwise.
    """
    a = as_matrix(m, name)
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale == 0.0:
        raise NotSPD(f"{name} is zero")
    if np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale:
        raise NotSPD(f"{name} is not symmetric")
    a = 0.5 * (a + a.T)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotSPD(f"{name} is not positive definite") from None
    return a


def spd_sqrt(m) -> np.ndarray:
    """Symmetric positive-definite square root."""
    a = check_spd(m)
    w, q = np.linalg.eigh(a)
    return (q * np.sqrt(w)) @ q.T


def spd_inv(m) -> np.ndarray:
    a = check_spd(m)
    w, q = np.linalg.eigh(a)
    return (q / w) @ q.T


def extreme_eigenvalues(m) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a symmetric matrix."""
    w = np.linalg.eigvalsh(as_matrix(m))
    return float(w[0]), float(w[-1])


# read by an OpenBLAS when it loads
_THREAD_VAR = "OPENBLAS_NUM_THREADS"

# numpy and scipy each bundle their own OpenBLAS, under different symbol names
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _thread_control(path: str):
    """(get, set) thread-count functions of the OpenBLAS at path, or None."""
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _openblas_thread_controls() -> list:
    """Thread controls of every OpenBLAS mapped into this process now, read
    from /proc/self/maps; empty where that file is missing."""
    try:
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(line.split()[-1] for line in fh if "openblas" in line)
    except OSError:
        return []
    return [c for c in map(_thread_control, paths) if c is not None]


@contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS at one thread, then restore the
    previous counts.

    The linear algebra here is on d x d matrices and short vectors, too small
    to gain from threads; with one pool worker per core, the idle OpenBLAS
    threads of one worker spin on the core the other needs. Pool workers
    forked inside the block inherit the count, which also makes results
    independent of the worker count. OPENBLAS_NUM_THREADS is 1 for the
    block, so an OpenBLAS first loaded inside it, as scipy's is on the first
    use of scipy.optimize, starts at one thread; one first loaded by this
    process stays at one thread after the block. Sets no count where no
    OpenBLAS is loaded.
    """
    # After a fork, setting a count makes OpenBLAS start its thread pool
    # again, and new pool threads spin for a while: set only counts that
    # change, so a nested pin and its exit touch nothing.
    saved = [(set_, count) for get, set_ in _openblas_thread_controls()
             if (count := get()) != 1]
    for set_, _ in saved:
        set_(1)
    env = os.environ.get(_THREAD_VAR)
    os.environ[_THREAD_VAR] = "1"
    try:
        yield
    finally:
        if env is None:
            os.environ.pop(_THREAD_VAR, None)
        else:
            os.environ[_THREAD_VAR] = env
        for set_, count in saved:
            set_(count)
