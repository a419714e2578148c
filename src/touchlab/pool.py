"""One bounded process pool for independent jobs, kept for the process.

``ordered_map(fn, jobs)`` yields ``fn(*job)`` for every job, in job order.
With more than one CPU it runs the jobs in a pool of ``spawn`` workers,
one per CPU this process may use, with at most one job more than workers
in flight.  With one CPU (``taskset -c 0``) or fewer than two jobs it is a
plain loop in this process.  The pool is made on the first parallel call
and kept.  A call during which a worker dies raises ``BrokenProcessPool``;
a call that finds the pool broken replaces it.  A worker's exception
reaches the caller as the same class.  Everything sent to a worker is
pickled, the function by its import path.
"""

from __future__ import annotations

import os
import sys
from collections import deque

#: Added to every worker's start-up environment.  The workers already fill
#: the CPUs, so each runs BLAS with one thread; OpenBLAS reads its thread
#: count once, when numpy loads, so the count cannot be set later.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}

_PR_SET_PDEATHSIG = 1  # prctl option, <linux/prctl.h>

_pool = None       # the ProcessPoolExecutor, once made
_pool_size = 0


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
    if workers < 2 or len(jobs) < 2:
        for job in jobs:
            yield fn(*job)
        return
    from concurrent.futures import wait

    executor = _executor(workers)
    pending = deque()
    try:
        for job in jobs:
            pending.append(executor.submit(fn, *job))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _executor(workers: int):
    global _pool, _pool_size
    # ``_broken`` is set once the pool has seen a worker die.
    if _pool is not None and (_pool_size != workers or _pool._broken):
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
                initializer=_die_with_parent, initargs=(os.getpid(),))
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


def _die_with_parent(parent_pid: int) -> None:
    """Worker initializer: on Linux, have the kernel kill this worker when
    its parent dies.  A worker holds the job pipe's write end itself, so it
    would never see the pipe close and would wait for jobs forever."""
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
