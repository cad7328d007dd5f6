"""Independent work items in forked worker processes, one per usable CPU.

:func:`fork_map` is the package's one way to run work in parallel: the
annealing restarts of a design, the trial blocks and selection-score
correlations of a sensor field, and the decode blocks of the asymmetric
experiment.  The decoder tables are built before the fork, in the calling
process, and the workers inherit them.
Workers are forked, because a spawned one re-imports numpy and starts a
resource tracker that outlives the call, and a forked one inherits the
function and its items without pickling them; only the results travel
back.  OpenBLAS's own fork handler stops its thread pool before the fork,
and each worker pins OpenBLAS to one thread: forked workers that keep the
parent's BLAS pool oversubscribe the cores and run slower than the serial
loop, so without a thread setter the items run in this process.  Each
worker also keeps the heap memory it frees for its next item.  Results do
not depend on the worker count as long as each item's result depends only
on that item.

Per-trial outputs do not travel back through the pipes: the caller makes
their arrays before the fork with :func:`shared_array`, in anonymous shared
memory that every worker inherits, and each item writes its own slice.

The package loads ``scipy.special`` (about 0.2 s) only in the functions that
call it, so importing mdquant, loading a codec, ``bound`` and ``report``
never do.  Work items that take Gaussian moments or draw AWGN noise call
it, so :func:`fork_map` imports it in this process before it forks: the
workers inherit the module, and a command imports it once, not once per
worker.
"""

from __future__ import annotations

import errno
import mmap
import os

import numpy as np


def _blas_thread_setter():
    """``set_num_threads`` of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    from pathlib import Path

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                return fn
    return None


def _keep_freed_memory() -> None:
    """Make glibc keep the memory this process frees for its next allocations.

    A worker frees all of an item's temporaries when the item returns; glibc
    would then trim its heap and unmap chunks above its mmap threshold, and
    the next item would fault the same pages in again: each of two workers
    decoding a 1M-trial AWGN row took 39k page faults, against 7k with
    the memory kept.  A worker then holds its peak heap until it exits.
    Without glibc's ``mallopt`` nothing changes.
    """
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: trim only above 1 GiB of free heap
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's largest, 32 MiB, not adaptive


def worker_count(items: int) -> int:
    """Worker processes for ``items`` work items; 1 runs them in this process.

    One per usable CPU, up to the item count.  The items stay in this
    process when there is only one of them or one CPU, when the platform
    cannot fork, when the caller is daemonic (it may not start processes of
    its own) or when no BLAS thread setter is found.
    """
    import multiprocessing

    if (
        items < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or _blas_thread_setter() is None
    ):
        return 1
    return min(items, len(os.sched_getaffinity(0)))


def shared_array(shape) -> np.ndarray:
    """Zero-filled float64 array of ``shape`` in anonymous shared memory.

    Forked workers inherit the mapping, so what a :func:`fork_map` item
    writes into it is what this process reads once the call returns.  The
    memory is released with the last array that views it.  A mapping too
    large for memory raises ``MemoryError``, as a numpy allocation does.
    """
    count = int(np.prod(shape))
    try:
        buf = mmap.mmap(-1, max(count, 1) * 8)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"Unable to allocate {count * 8} bytes of shared memory") from None
    return np.frombuffer(buf, count=count).reshape(shape)


def _worker(inherited, send, fn, items) -> None:
    """Body of one forked worker: run ``fn`` on ``items`` and send the results once.

    ``inherited`` are the parent's read ends forked into this worker; closing
    them lets a send to a parent that was killed fail instead of blocking.
    """
    for conn in inherited:
        conn.close()
    _blas_thread_setter()(1)
    _keep_freed_memory()
    results = [fn(item) for item in items]
    try:
        send.send(results)
    except BrokenPipeError:  # the parent is gone; nobody wants the results
        pass


def fork_map(fn, items, name: str = "forked") -> list:
    """``[fn(item) for item in items]``, computed by :func:`worker_count` forked workers.

    Worker ``w`` of ``W`` runs items ``w, w + W, ...`` in order and sends
    their results back once; the results come back in item order.  If a
    worker dies before it sends, or anything else fails, every worker is
    terminated and joined before the error propagates; a worker that died
    raises ``RuntimeError`` naming ``name``.  Before it forks it imports
    ``scipy.special``, which the package's work items load on first use, so
    the workers inherit it instead of each importing it again.
    """
    items = list(items)
    workers = worker_count(len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    import scipy.special  # noqa: F401  (once here, so that no worker imports it)

    mp = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for w in range(workers):
            recv, send = mp.Pipe(duplex=False)
            conns.append(recv)
            proc = mp.Process(
                target=_worker,
                args=(tuple(conns), send, fn, items[w::workers]),
                name=f"mdquant-{name}-{w}",
            )
            proc.start()
            procs.append(proc)
            send.close()
        chunks = []
        for recv, proc in zip(conns, procs):
            try:
                chunks.append(recv.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"{name} worker exited with code {proc.exitcode} before sending results"
                ) from None
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for recv in conns:
            recv.close()
    results = [None] * len(items)
    for w, chunk in enumerate(chunks):
        results[w::workers] = chunk
    return results
