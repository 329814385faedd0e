"""The package's calls into native code.

glibc's malloc setting (:func:`keep_freed_memory`), the pin of numpy's
OpenBLAS to one thread (:func:`pin_blas_threads`), and the compiled
distance kernels of ``_kernels.c`` (:func:`pair_distances`,
:func:`cross_distances`). One rule holds for all of them: native code
that is missing or fails raises nothing. The first two then do nothing,
and the distances come from scipy's ``pdist`` and ``cdist``, which give
the same bits.

The kernels are built by the C compiler ``cc`` on first use, into a
per-user cache directory outside the checkout, and loaded from there by
every later process. Importing this module builds and loads nothing.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist, pdist

# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def keep_freed_memory() -> None:
    """Have glibc's malloc keep freed blocks in this process's heap.

    By default glibc serves numpy's large temporaries (pair distances,
    novelty's blocks, genotype blocks: 0.4-2.2 MB at 512 x 100) from
    fresh mmaps and returns a freed heap top to the kernel, so each
    generation faults in new zero pages: about 1,400 for novelty. With
    the mmap threshold at glibc's 64-bit ceiling and the trim threshold
    above a generation's temporaries, the next generation reuses what
    the last one freed. The trim threshold is set only where the first
    call was understood. Without glibc's mallopt this does nothing; it
    never raises.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
            mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    # No C library to open, no mallopt in it, or no way to open it by None.
    except (OSError, AttributeError, TypeError):
        pass


# The file name of numpy's bundled OpenBLAS.
_BLAS_LIBRARY = "libscipy_openblas64_"


def pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS, found among the process's mapped
    files, on one thread in this process.

    A grid runs a pool worker per core, and OpenBLAS may run a thread per
    core in each worker for lexicase's key product, the package's one
    float matrix product: two workers then ran lexicase several times
    slower than one. A pool whose initializer raises restarts its workers
    without end, so a library or call that is not there is let be.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[5].strip()
                     for line in maps if _BLAS_LIBRARY in line}
        for path in sorted(paths):
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
    # No maps file or library, no such call, or a path that is not UTF-8.
    except (OSError, AttributeError, ValueError):
        pass


# The kernels' build. The flags keep every pair's sum in scipy's order:
# no fused multiply-add, no reassociation. A change to the source or the
# flags gives the library a new name.
_COMPILER = "cc"
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_BUILD_SECONDS = 120

_BLOCK = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
_OUT = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
_SIZE = ctypes.c_ssize_t


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/evodiags``, else ``~/.cache/evodiags``, else the
    temporary directory's ``evodiags``."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        try:
            base = Path.home() / ".cache"
        except RuntimeError:  # no home directory to be found
            base = tempfile.gettempdir()
    return Path(base) / "evodiags"


def _built_library() -> Path:
    """The path of the kernels' library, compiled first if it is not there.

    The compiler writes to a temporary name in the cache directory, and
    the finished library is renamed into place, so no process loads a
    half-written file.
    """
    source = resources.files(__package__).joinpath("_kernels.c").read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, os.uname().machine.encode(), *map(str.encode, _FLAGS)])).hexdigest()
    library = _cache_dir() / f"kernels-{key[:16]}.so"
    if library.exists():
        return library
    library.parent.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(prefix=f".{library.name}.", dir=library.parent)
    os.close(handle)
    try:
        subprocess.run([_COMPILER, *_FLAGS, "-x", "c", "-", "-o", partial],
                       input=source, capture_output=True, check=True,
                       timeout=_BUILD_SECONDS)
        os.replace(partial, library)
    finally:
        Path(partial).unlink(missing_ok=True)
    return library


@functools.cache
def kernels() -> Optional[ctypes.CDLL]:
    """The compiled distance kernels, built if need be, loaded once per
    process; None where they cannot be built or loaded, or where they
    disagree with scipy on :func:`_check_block`."""
    try:
        library = ctypes.CDLL(str(_built_library()))
        library.pair_distances.argtypes = [_BLOCK, _SIZE, _SIZE, _OUT]
        library.cross_distances.argtypes = [_BLOCK, _BLOCK, _SIZE, _SIZE, _SIZE, _OUT]
        library.pair_distances.restype = library.cross_distances.restype = None
    # No compiler, a failed or timed-out build, an unwritable cache, a
    # library that does not load or lacks a kernel.
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    block = _check_block()
    a, b = block[:23], block[18:]
    agrees = (_same_bits(_native_pairs(library, block), pdist(block))
              and _same_bits(_native_cross(library, a, b), cdist(a, b)))
    return library if agrees else None


def _check_block() -> np.ndarray:
    """41 rows of 13 dimensions: varied values whose sums a changed
    order or a fused multiply-add would round otherwise, a clone, rows of
    0.0 and -0.0, and values whose squares underflow."""
    varied = np.random.default_rng(0).uniform(0.0, 100.0, size=(32, 13))
    signed = np.zeros((3, 13))
    signed[1] = -0.0
    signed[2, ::2] = -0.0
    tiny = np.array([[1e-160] * 13, [-3e-170] * 13, [1e-300] * 13, [5e-324] * 13,
                     [2e-4] * 13])
    return np.vstack([varied, varied[:1], signed, tiny])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _native_pairs(library: ctypes.CDLL, rows: np.ndarray) -> np.ndarray:
    n, d = rows.shape
    out = np.empty(n * (n - 1) // 2)
    library.pair_distances(np.ascontiguousarray(rows.T, dtype=np.float64), n, d, out)
    return out


def _native_cross(library: ctypes.CDLL, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[1]:  # the kernel reads d columns of both
        raise ValueError(f"rows of {a.shape[1]} and {b.shape[1]} dimensions")
    out = np.empty((a.shape[0], b.shape[0]))
    library.cross_distances(np.ascontiguousarray(a, dtype=np.float64),
                            np.ascontiguousarray(b.T, dtype=np.float64),
                            a.shape[0], b.shape[0], a.shape[1], out)
    return out


def pair_distances(rows: np.ndarray) -> np.ndarray:
    """``pdist(rows)`` bit for bit: the Euclidean distance of every pair
    of rows, in ``pdist``'s condensed order."""
    library = kernels()
    return pdist(rows) if library is None else _native_pairs(library, rows)


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cdist(a, b)`` bit for bit: the Euclidean distance from every row
    of ``a`` to every row of ``b``."""
    library = kernels()
    return cdist(a, b) if library is None else _native_cross(library, a, b)
