"""One shared thread pool that runs work over fixed-size row strips.

A strip is a run of consecutive indices of one axis (the last strip may
be shorter): STRIP_ROWS of them for the blur, motion and resample
passes, and the rows of the conv engine's lowering budget for its
correlations (see `tensor._tiles`).  The strip size never depends on
the worker count, so each strip computes the same floats whichever
thread runs it, and a result is byte-identical at any count; with one
worker or one strip the same strips run on the calling thread alone.

Callers allocate every volume-sized array before handing strips to the
pool: memory that pool threads allocate lands in their own allocator
arenas and stays with the process.  A strip may allocate its own
scratch, such as a conv strip's lowering buffer, held to
`tensor._COL_BYTES` unless one row needs more.
"""

from __future__ import annotations

import contextvars
import functools
import os
from concurrent.futures import ThreadPoolExecutor

STRIP_ROWS = 16


@functools.cache
def thread_count() -> int:
    """Worker count: OMP_NUM_THREADS when it is a positive integer, else the CPUs this process may use.

    The CLI's `--threads` sets OMP_NUM_THREADS before any numeric module
    is imported.  Read once, on first use.
    """
    try:
        n = int(os.environ.get("OMP_NUM_THREADS", ""))
    except ValueError:
        n = 0
    if n >= 1:
        return n
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _pool() -> ThreadPoolExecutor:
    # the calling thread is the last worker
    return ThreadPoolExecutor(thread_count() - 1, thread_name_prefix="oocs3d-strip")


def for_strips(n_rows: int, fn, rows: int = STRIP_ROWS) -> None:
    """Call fn(strip) for each strip (a slice of `rows` indices) of range(n_rows); return when all are done.

    The calling thread and up to thread_count() - 1 pool threads take
    strips from one queue until it is empty; with one worker or one
    strip, no pool thread starts.  The first strip that raises empties
    the queue, so no worker starts another strip; the calling thread's
    own exception propagates, else a pool thread's, once every worker
    has stopped.
    """
    if n_rows <= rows:  # one strip: nothing to share
        fn(slice(0, n_rows))
        return
    starts = range(0, n_rows, rows)
    strips = iter([slice(y, min(y + rows, n_rows)) for y in starts])

    def drain():
        try:
            for strip in strips:  # next() on a list iterator is atomic under the GIL
                fn(strip)
        except BaseException:
            for _ in strips:
                pass
            raise

    # each helper runs in a copy of the caller's context, so it sees the caller's numpy error state
    helpers = [_pool().submit(contextvars.copy_context().run, drain)
               for _ in range(min(thread_count(), len(starts)) - 1)]
    try:
        drain()
    finally:
        # wait for every helper without letting its error replace one already raised
        errors = [e for e in (helper.exception() for helper in helpers) if e is not None]
    if errors:
        raise errors[0]
