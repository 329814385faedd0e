"""The package's calls into native code.

glibc's malloc setting (:func:`keep_freed_memory`) and the compiled
kernels of ``_kernels.c``: the exact distances (:func:`pair_block`,
:func:`cross_distances`) and lexicase's filter (:func:`lexicase_rows`).
The distance kernels only add each pair's squared differences, in
scipy's order, into zeros that numpy allocates; numpy then takes the
correctly rounded square roots. They keep 4 x 8 tiles of pair sums in
registers, fed from packed panels: numpy's copy of the rows 8 at a time,
the 8 values of each dimension side by side. :func:`pair_block` then
gathers the condensed values straight into the rows its callers sum, so
numpy does every sum and the square block is never built. One rule holds
for all of them: native code that is missing or fails raises nothing.
The malloc setting then does nothing, the distances come from scipy's
``pdist`` and ``cdist``, which give the same bits, the gather from
``squareform`` and ``take``, and the filter from a numpy loop over the
case positions, which gives the same rows. Only this module knows the
condensed order of the pairs.

The kernels are built by the C compiler ``cc`` on first use, into a
per-user cache directory outside the checkout, and loaded from there by
every later process. Importing this module builds and loads nothing, not
even scipy, which the calls that use it import on first use.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import time
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np

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


# Rows per packed panel, the lanes of a register tile (COLS in _kernels.c),
# and rows of the square per pass of the gather (GATHER there).
_COLS = 8
_GATHER = 8

# The kernels' build. -ffp-contract=off is the one flag that decides the
# distances' bits: it fuses no multiply and add, and -O3 reassociates no
# sum, so every pair's sum keeps scipy's order. A change to the source or
# the flags gives the library a new name.
_COMPILER = "cc"
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_BUILD_SECONDS = 120

# Arrays go to the kernels as the addresses of C-ordered float64 or int64
# blocks that the callers below allocate or convert with those types, and
# keep referenced in a local name until the kernel returns. An ndpointer
# type would check that again, at about 3 us more per array on a 2-core
# x86-64 machine: a third of a gather's call at 128 x 20.
_ADDRESS = ctypes.c_void_p
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
    half-written file. A build first removes the temporary files of
    builds that ended without a rename, those older than a build may
    run; other sources' libraries stay, for checkouts that share the
    cache.
    """
    source = resources.files(__package__).joinpath("_kernels.c").read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, os.uname().machine.encode(), *map(str.encode, _FLAGS)])).hexdigest()
    library = _cache_dir() / f"kernels-{key[:16]}.so"
    if library.exists():
        return library
    library.parent.mkdir(parents=True, exist_ok=True)
    stale = time.time() - _BUILD_SECONDS
    for left in library.parent.glob(".kernels-*.so.*"):
        try:
            if left.stat().st_mtime < stale:
                left.unlink()
        except FileNotFoundError:  # another build removed or renamed it first
            pass
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
    """The compiled kernels, built if need be, loaded once per process;
    None where they cannot be built or loaded, or where they disagree
    with scipy or the numpy filter on :func:`_check_block`."""
    try:
        library = ctypes.CDLL(str(_built_library()))
        library.pair_distances.argtypes = [_ADDRESS, _SIZE, _SIZE, _ADDRESS]
        library.cross_distances.argtypes = [_ADDRESS, _ADDRESS, _SIZE, _SIZE, _SIZE, _ADDRESS]
        library.gather_pairs.argtypes = [_ADDRESS, ctypes.c_double, _SIZE, _ADDRESS, _SIZE,
                                         _ADDRESS, _ADDRESS]
        library.lexicase_filter.argtypes = [_ADDRESS, _SIZE, _SIZE, _ADDRESS, _SIZE,
                                            _ADDRESS, _ADDRESS]
        library.pair_distances.restype = library.cross_distances.restype = None
        library.gather_pairs.restype = library.lexicase_filter.restype = None
    # No compiler, a failed or timed-out build, an unwritable cache, a
    # library that does not load or lacks a kernel.
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    from scipy.spatial.distance import cdist, pdist
    block = _check_block()
    a, b = block[:23], block[18:]
    # Rows that tie on most cases, with clones and zeros of both signs,
    # and two constant cases, one of them zeros of both signs.
    rows = np.floor(block / 40.0)
    rows[:, 3] = 1.0
    rows[:, 8] *= 0.0
    orders = np.random.default_rng(0).permuted(np.tile(np.arange(13), (64, 1)), axis=1)
    # Every condensed position holds its own value, and the diagonal
    # another: a gather that reads any other position shows.
    m = len(block)
    values = np.arange(m * (m - 1) // 2, dtype=np.float64)
    members = np.random.default_rng(0).integers(0, m, size=150)
    agrees = (_same_bits(_native_pairs(library, block), pdist(block))
              and _same_bits(_native_cross(library, a, b), cdist(a, b))
              and _same_bits(_native_gather(library, values, -1.0, m, members),
                             _square_gather(values, -1.0, members))
              and np.array_equal(_native_lexicase(library, rows, orders),
                                 _filter_by_case(rows, orders)))
    return library if agrees else None


def _check_block() -> np.ndarray:
    """41 rows of 13 dimensions: varied values whose sums a changed
    order or a fused multiply-add would round otherwise, a clone, rows of
    0.0 and -0.0, and values whose squares underflow. Its pairs meet the
    tiles, and columns before and after the whole panels; its cross block
    (23 rows against 23) meets a short row block too."""
    varied = np.random.default_rng(0).uniform(0.0, 100.0, size=(32, 13))
    signed = np.zeros((3, 13))
    signed[1] = -0.0
    signed[2, ::2] = -0.0
    tiny = np.array([[1e-160] * 13, [-3e-170] * 13, [1e-300] * 13, [5e-324] * 13,
                     [2e-4] * 13])
    return np.vstack([varied, varied[:1], signed, tiny])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _panels(rows: np.ndarray) -> np.ndarray:
    """The rows packed _COLS at a time, the last panel padded with zeros:
    ``panels[p, k, lane]`` is ``rows[p * _COLS + lane, k]``."""
    n, d = rows.shape
    full = n - n % _COLS
    panels = np.zeros((-(-n // _COLS), d, _COLS))
    lanes = panels.transpose(0, 2, 1)  # lanes[p, lane] is row p * _COLS + lane
    lanes[:full // _COLS] = rows[:full].reshape(-1, _COLS, d)
    lanes[full // _COLS:, :n - full] = rows[full:]
    return panels


def _native_pairs(library: ctypes.CDLL, rows: np.ndarray) -> np.ndarray:
    n, d = rows.shape
    panels, out = _panels(rows), np.zeros(n * (n - 1) // 2)
    library.pair_distances(panels.ctypes.data, n, d, out.ctypes.data)
    return np.sqrt(out, out=out)


def _native_cross(library: ctypes.CDLL, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[1]:  # the kernel reads d columns of both
        raise ValueError(f"rows of {a.shape[1]} and {b.shape[1]} dimensions")
    a, panels = np.ascontiguousarray(a, dtype=np.float64), _panels(b)
    out = np.zeros((a.shape[0], b.shape[0]))
    library.cross_distances(a.ctypes.data, panels.ctypes.data, a.shape[0], b.shape[0],
                            a.shape[1], out.ctypes.data)
    return np.sqrt(out, out=out)


def _native_gather(library: ctypes.CDLL, values: np.ndarray, diagonal: float, m: int,
                   members: np.ndarray) -> np.ndarray:
    """The gather of the condensed ``values`` of m rows, columns
    ``members``, each below m."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    members = np.ascontiguousarray(members, dtype=np.int64)
    if values.shape != (m * (m - 1) // 2,):  # the kernel reads every pair of m rows
        raise ValueError(f"{values.shape} condensed values for {m} rows")
    work, out = np.empty((min(m, _GATHER), m)), np.empty((m, len(members)))
    library.gather_pairs(values.ctypes.data, diagonal, m, members.ctypes.data, len(members),
                         work.ctypes.data, out.ctypes.data)
    return out


def _square_gather(values: np.ndarray, diagonal: float, members: np.ndarray) -> np.ndarray:
    """The gather in numpy: the square block of the condensed ``values``
    with ``diagonal`` on its diagonal, columns ``members``."""
    from scipy.spatial.distance import squareform
    square = squareform(values)
    np.fill_diagonal(square, diagonal)
    return np.take(square, members, axis=1)


def _native_lexicase(library: ctypes.CDLL, rows: np.ndarray, orders: np.ndarray) -> np.ndarray:
    m, d = rows.shape
    cases = np.ascontiguousarray(rows.T, dtype=np.float64)
    orders = np.ascontiguousarray(orders, dtype=np.int64)
    work, out = np.empty(m + d, dtype=np.int64), np.empty(len(orders), dtype=np.int64)
    library.lexicase_filter(cases.ctypes.data, m, d, orders.ctypes.data, len(orders),
                            work.ctypes.data, out.ctypes.data)
    return out


def _filter_by_case(rows: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The kernel's rows in numpy: one pass per case position over the
    picks still open, those with more than one row left."""
    out = np.zeros(len(orders), dtype=np.int64)
    picks = np.arange(len(orders))
    left = np.ones((len(orders), len(rows)), dtype=bool)
    cases = rows.T
    for position in orders.T:
        if not picks.size:
            break
        values = cases[position[picks]]
        left &= values == np.where(left, values, -np.inf).max(axis=1, keepdims=True)
        done = left.sum(axis=1) == 1
        out[picks[done]] = left[done].argmax(axis=1)
        picks, left = picks[~done], left[~done]
    out[picks] = left.argmax(axis=1)
    return out


def pair_block(rows: np.ndarray, f: Callable[[np.ndarray], np.ndarray],
               members: np.ndarray) -> np.ndarray:
    """``f(cdist(rows, rows))[:, members]`` bit for bit, in C order, for
    an element-wise ``f`` and indices ``members`` of ``rows``.

    Each pair's distance is computed once, in ``pdist``'s condensed order
    and by ``cdist``'s rule: its squared differences added in dimension
    order from 0, then the square root. So ``f`` runs on N(N-1)/2 values;
    the diagonal, where ``cdist`` gives 0, is ``f(0)``. The kernels gather
    the block's columns straight from those values; the square block is
    built only where they are missing.
    """
    members = np.ascontiguousarray(members, dtype=np.int64)
    m = len(rows)
    if members.ndim != 1 or (members.size and (members.min() < 0 or members.max() >= m)):
        raise ValueError(f"members of shape {members.shape} outside {m} rows")
    diagonal = float(f(np.zeros(1))[0])
    library = kernels()
    if library is None:
        from scipy.spatial.distance import pdist
        return _square_gather(f(pdist(rows)), diagonal, members)
    return _native_gather(library, f(_native_pairs(library, rows)), diagonal, m, members)


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cdist(a, b)`` bit for bit: the Euclidean distance from every row
    of ``a`` to every row of ``b``."""
    library = kernels()
    if library is not None:
        return _native_cross(library, a, b)
    from scipy.spatial.distance import cdist
    return cdist(a, b)


def lexicase_rows(rows: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Lexicase's filter: for each row of ``orders``, a permutation of the
    columns of ``rows``, the lowest row left after keeping, case by case
    in that order, the rows equal to the best value among those left."""
    orders = np.ascontiguousarray(orders, dtype=np.int64)
    m, d = rows.shape
    # The kernel reads d cases a pick, each one column of rows, and at least one row.
    off_cases = orders.size and (orders.min() < 0 or orders.max() >= d)
    if orders.ndim != 2 or orders.shape[1] != d or off_cases or (len(orders) and not m):
        raise ValueError(f"case orders of shape {orders.shape} over {m} rows of {d} cases")
    library = kernels()
    if library is None:
        return _filter_by_case(rows, orders)
    return _native_lexicase(library, rows, orders)
