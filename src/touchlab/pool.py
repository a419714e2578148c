"""One bounded process pool for independent jobs, kept for the process.

``ordered_map(fn, jobs)`` yields ``fn(*job)`` for every job, in job order.
With more than one CPU it runs the jobs in a pool of ``spawn`` workers,
one per CPU this process may use, with at most one job more than workers
in flight.  With one CPU (``taskset -c 0``), fewer than two jobs, or when
called by a job in a worker, it is a plain loop in the calling process, so
no worker starts a pool of its own.  The pool is made on the first
parallel call and kept.  A call during which a worker dies raises
``BrokenProcessPool``; a call that finds a worker dead replaces the pool.  A
worker's exception reaches the caller as the same class.  Everything sent
to a worker is pickled, the function by its import path.  A job's array
result comes back through a shared-memory segment, and the result pipe
carries only its name: the executor unpickles results in a thread of its
own, whose malloc arena would keep the pages of the large results it held.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

#: Added to every worker's start-up environment.  The workers already fill
#: the CPUs, so each runs BLAS with one thread; OpenBLAS reads its thread
#: count once, when numpy loads, so the count cannot be set later.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}

_PR_SET_PDEATHSIG = 1  # prctl option, <linux/prctl.h>

_pool = None       # the ProcessPoolExecutor, once made
_pool_size = 0
_in_worker = False  # True in a worker of the pool (``_start_worker``)


def worker_count() -> int:
    """The CPUs this process may run on: the pool's size."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, jobs):
    """Yield ``fn(*job)`` for each job of ``jobs`` (argument tuples), in
    job order.  Closing the generator early cancels the queued jobs and
    waits for the running ones, so no job outlives it."""
    jobs = list(jobs)
    workers = worker_count()
    if _in_worker or workers < 2 or len(jobs) < 2:
        for job in jobs:
            yield fn(*job)
        return
    from concurrent.futures import wait

    executor = _executor(workers)
    pending = deque()
    try:
        for job in jobs:
            pending.append(executor.submit(_run, fn, *job))
            if len(pending) > workers:
                yield _unpark(pending.popleft().result())
        while pending:
            yield _unpark(pending.popleft().result())
    finally:
        for future in pending:
            future.cancel()
        wait(pending)
        for future in pending:  # finished, but never yielded
            if not future.cancelled() and future.exception() is None:
                _unpark(future.result())


@dataclass(frozen=True)
class _Parked:
    """An array result a worker left in a shared-memory segment: the name,
    shape and dtype are all the result pipe carries."""

    name: str
    shape: tuple
    dtype: str

    @classmethod
    def park(cls, arr):
        from multiprocessing.shared_memory import SharedMemory

        shm = SharedMemory(create=True, size=arr.nbytes)
        try:
            np.ndarray(arr.shape, arr.dtype, buffer=shm.buf)[...] = arr
        finally:
            shm.close()
        return cls(shm.name, arr.shape, arr.dtype.str)

    def take(self) -> np.ndarray:
        """A copy of the array; the segment is removed."""
        from multiprocessing.shared_memory import SharedMemory

        shm = SharedMemory(self.name)
        try:
            return np.ndarray(self.shape, self.dtype, buffer=shm.buf).copy()
        finally:
            shm.close()
            shm.unlink()


def _run(fn, *args):
    """Worker side of a job: a non-empty array of plain values is parked."""
    result = fn(*args)
    if isinstance(result, np.ndarray) and result.nbytes and not result.dtype.hasobject:
        return _Parked.park(result)
    return result


def _unpark(result):
    return result.take() if isinstance(result, _Parked) else result


def _executor(workers: int):
    global _pool, _pool_size
    if _pool is not None and (_pool_size != workers or _broken(_pool)):
        _drop()
    if _pool is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import util

        saved = {name: os.environ.get(name) for name in WORKER_ENV}
        os.environ.update(WORKER_ENV)
        try:
            _pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("spawn"),
                initializer=_start_worker, initargs=(os.getpid(),))
            _pool_size = workers
            # A worker starts inside ``submit`` when none is idle, so these
            # start every worker now, while the environment holds WORKER_ENV.
            for _ in range(workers):
                _pool.submit(os.getpid)
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
        # Runs at exit after the finalizers that release the semaphores.
        util.Finalize(None, _shut_down, exitpriority=-100)
    return _pool


def _broken(executor) -> bool:
    """Whether a worker of ``executor`` has died.  ``_broken`` is set only
    once the executor's manager thread has seen the death, which may come
    after the next call has begun submitting."""
    return bool(executor._broken) or not all(
        p.is_alive() for p in list(executor._processes.values()))


def _start_worker(parent_pid: int) -> None:
    """Worker initializer: mark this process as a worker, so that its own
    ``ordered_map`` calls run in it; and, on Linux, have the kernel kill it
    when its parent dies.  A worker holds the job pipe's write end itself,
    so it would never see the pipe close and would wait for jobs forever."""
    global _in_worker
    _in_worker = True
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    import signal

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent_pid:  # the parent died before the call
        os._exit(1)


def _drop() -> None:
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None


def _shut_down() -> None:
    """Join the workers while the modules they need are still loaded, then
    stop and reap the helper process that ``spawn`` starts to track
    semaphores; left alone, it exits only after this interpreter has."""
    from multiprocessing import resource_tracker

    _drop()
    resource_tracker._resource_tracker._stop()
