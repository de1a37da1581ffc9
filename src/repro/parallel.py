"""Host threads for lowering kernels: one pool, split by row range.

The Tensorizer's batched rules spend their time in NumPy and BLAS calls
that release the GIL, so a kernel whose rows are independent can run on
every host core at once.  :func:`row_ranges` cuts a kernel's rows (tile
bands, GEMM row chunks, stencil patch rows...) into one contiguous range
per thread, and :func:`split_rows` runs the first range on the calling
thread and the others on one process-wide thread pool, returning each
range's result in row order.  The caller merges counters, spans,
integrity checks and saturation sums from those results, in that order,
so a split kernel stays bit-identical to running it whole.

The thread count is the number of CPUs the process may run on
(``os.sched_getaffinity``); it has no option.  A kernel splits only when
its rows are big: at ``_SPLIT_FLOOR`` elements or fewer per row, each
NumPy call is too short to hide the hand-offs between threads, and the
kernel runs whole on the caller.  No serving GEMM reaches the floor
alone, so a process whose kernels all stay below it never starts a
thread; the pool is created on the first split.

:func:`fill_rows` does the same for host NumPy whose rows are
independent (the apps' own float64 math): above the floor it computes
fixed blocks of ``_BLOCK_ROWS`` rows into a preallocated output, each
block one kernel call whatever the thread count, so the result is the
same on one thread as on many.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, TypeVar

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")

#: Elements per row (per tile band, row chunk, patch row...) at or below
#: which a kernel runs whole on the calling thread.  Measured on a
#: 2-vCPU x86 VM: a pairwise op on 128-row bands of 512 columns (65 536
#: elements) lowers about 1.25x faster on two threads, on bands of 256
#: columns it lowers slower, and on 64 columns twice as slow.
_SPLIT_FLOOR = 1 << 15

#: Rows per block of :func:`fill_rows`.  A BLAS call's result for one
#: row can depend on where the call's rows start (OpenBLAS's edge
#: kernels accumulate in another order: a 256x256 by 256x300 product
#: cut at row 128 differed from the whole in 12 rows), so a split is
#: bit-identical by construction only if it makes the same calls.  At
#: 256 rows a 2048x2048 by 2048x512 product takes 7% longer in blocks
#: than whole on one thread, and 2048 rows split over two threads
#: 1.9x faster.
_BLOCK_ROWS = 256

#: glibc ``mallopt`` parameter: the most malloc arenas it creates.
_M_ARENA_MAX = -8


def _affinity_threads() -> int:
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


#: Threads a split kernel runs on: the caller plus ``_THREADS - 1``
#: pool workers.
_THREADS = _affinity_threads()

_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_in_worker = threading.local()


def _mark_worker() -> None:
    _in_worker.active = True


def _share_malloc_arena() -> None:
    """Let the pool's threads allocate from the arena the process
    already has (glibc only).

    By default glibc gives every thread that allocates its own arena,
    and an arena keeps the pages of freed temporaries, up to twice the
    allocator's dynamic mmap threshold (32 MB).  A worker's kernel
    temporaries would then stay resident beside the calling thread's:
    batch-apps peaked 5-10% higher.  The kernels allocate a few large
    buffers each, so one shared arena's lock is not contended.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt(_M_ARENA_MAX, 1)


def _executor() -> ThreadPoolExecutor:
    """The process-wide pool, created on first use."""
    global _pool
    with _lock:
        if _pool is None:
            _share_malloc_arena()
            _pool = ThreadPoolExecutor(
                max_workers=max(_THREADS - 1, 1),
                thread_name_prefix="repro-lower",
                initializer=_mark_worker,
            )
        return _pool


def row_ranges(rows: int, work: int) -> List[Tuple[int, int]]:
    """Contiguous ``(r0, r1)`` ranges covering *rows*, one per thread.

    *work* counts the elements the kernel streams over all its rows.
    One range when a row averages ``_SPLIT_FLOOR`` elements or fewer,
    when only one thread is available, or when called from a pool
    worker (a split kernel never splits again, so workers never wait on
    each other).
    """
    return _even_ranges(rows, _split_threads(rows, work))


def _split_threads(rows: int, work: int) -> int:
    """Threads a kernel of *rows* streaming *work* elements runs on."""
    if work <= rows * _SPLIT_FLOOR or getattr(_in_worker, "active", False):
        return 1
    return max(min(_THREADS, rows), 1)


def _even_ranges(count: int, parts: int) -> List[Tuple[int, int]]:
    return [(i * count // parts, (i + 1) * count // parts) for i in range(parts)]


def split_rows(
    kernel: Callable[[int, int], T], ranges: List[Tuple[int, int]]
) -> List[T]:
    """``kernel(r0, r1)`` over *ranges* (from :func:`row_ranges`), the
    first on the calling thread; results in row order.

    Every range finishes before this returns, even when one raises; the
    exception of the first failing range (in row order) propagates,
    which is the one the whole kernel would have raised.
    """
    if len(ranges) == 1:
        return [kernel(*ranges[0])]
    pool = _executor()
    futures = [pool.submit(kernel, r0, r1) for r0, r1 in ranges[1:]]
    results: List[T] = []
    error: Optional[BaseException] = None
    try:
        results.append(kernel(*ranges[0]))
    except BaseException as exc:  # noqa: BLE001 - re-raised below, in row order
        error = exc
    for future in futures:
        if error is None:
            error = future.exception()
            if error is None:
                results.append(future.result())
        else:
            future.exception()  # wait: the range may still write shared buffers
    if error is not None:
        raise error
    return results


def fill_rows(
    out: np.ndarray, kernel: Callable[[int, int, np.ndarray], object], work: int
) -> np.ndarray:
    """Fill *out* with ``kernel(r0, r1, out[r0:r1])``; returns *out*.

    The kernel writes rows ``r0..r1`` of the result into the view it is
    given, reading only what those rows need, so its rows are
    independent.  *work* counts the elements it streams over all rows.
    The rows go in blocks of ``_BLOCK_ROWS``, one call each and in
    order, split into one contiguous run of blocks per thread, the
    first run on the caller.  A kernel of one block, or whose blocks
    average ``_SPLIT_FLOOR`` elements or fewer (the floor of
    :func:`row_ranges`, a block being this kernel's row), runs once
    over every row on the caller.  Which calls are made depends on the
    shape and *work* alone, never on the thread count.
    """
    rows = len(out)
    starts = range(0, rows, _BLOCK_ROWS)
    if len(starts) < 2 or work <= len(starts) * _SPLIT_FLOOR:
        kernel(0, rows, out)
        return out

    def run(b0: int, b1: int) -> None:
        for r0 in starts[b0:b1]:
            r1 = min(r0 + _BLOCK_ROWS, rows)
            kernel(r0, r1, out[r0:r1])

    split_rows(run, _even_ranges(len(starts), _split_threads(len(starts), work)))
    return out
