"""A deterministic thread pool for the library's blocked passes.

The Gabor-matrix analyses (which the decay fit and the off-grid check
read), the row passes over a Gabor matrix and the symbol-class sweep split
their work into blocks.  Each block either writes a disjoint slice of
one output array, returns or appends a partial result (a maximum, its
survivors) that its caller folds, or folds maxima into one accumulator
under a lock; every fold is exact, so the order does not matter.  Every block runs the same numpy calls on the same
entries whichever thread runs it, so the results are bit-identical for
every worker count.  The blocks spend their time in numpy loops, GEMMs and
FFTs, which release the interpreter lock, so the workers run in parallel.

There are workers() workers, the calling thread and its helper threads:
as many as the CPUs this process may run on, unless a caller sets the
count with worker_limit (the CLI's --threads does, and the fused Gabor
analyses lower it on small lattices); the helper threads see the
caller's count.  Work of one block, or a count of one, runs on the calling
thread and starts no thread.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar, copy_context

__all__ = ["workers", "worker_limit", "block_share", "map_blocks"]

_WORKERS: ContextVar[int | None] = ContextVar("gaborfio_workers", default=None)


def workers() -> int:
    """The worker count of map_blocks in the current context."""
    n = _WORKERS.get()
    if n is not None:
        return n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def worker_limit(n: int):
    """Run the enclosed code with n workers; the previous count is restored
    on exit."""
    if n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")
    token = _WORKERS.set(n)
    try:
        yield
    finally:
        _WORKERS.reset(token)


def block_share(entries: int) -> int:
    """Entries per block such that the blocks in flight on all workers hold
    about `entries` entries together."""
    return max(1, entries // workers())


def map_blocks(fn, blocks) -> list:
    """[fn(block) for block in blocks], with the same results.

    With more than one worker and more than one block, the calling thread
    and up to workers() - 1 helper threads each take the next block nobody
    has taken until none is left.  Blocks are handed out in order and none
    after one raises, so the exception raised is that of the first block
    that raises, as in the serial loop.

    While the blocks run, worker k is bound to the k-th CPU the caller may
    use (the caller's binding is restored after): left to itself, the
    scheduler can keep two busy threads of one process on one CPU for
    hundreds of milliseconds.
    """
    blocks = list(blocks)
    n = min(workers(), len(blocks))
    if n <= 1:
        return [fn(block) for block in blocks]
    results = [None] * len(blocks)
    errors = {}
    lock = threading.Lock()
    taken = iter(range(len(blocks)))
    bind = hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if bind else []

    def work(k):
        if bind:
            _bind(cpus[k % len(cpus)])
        while True:
            with lock:
                i = next(taken, None)
                if i is None or errors:
                    return
            try:
                results[i] = fn(blocks[i])
            except BaseException as exc:      # raised below, after the join
                with lock:
                    errors[i] = exc

    # each helper runs in a copy of the caller's context: it sees worker_limit
    helpers = [threading.Thread(target=copy_context().run, args=(work, k),
                                name=f"gaborfio-block-{k}")
               for k in range(1, n)]
    for helper in helpers:
        helper.start()
    try:
        work(0)
    finally:
        for helper in helpers:
            helper.join()
        if bind:
            _bind(*cpus)
    if errors:
        raise errors[min(errors)]
    return results


def _bind(*cpus) -> None:
    """Let the calling thread run on the given CPUs only, where allowed."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass
