"""Forked worker processes that fill disjoint parts of shared arrays.

Three GIL-bound stages run over processes: the Dijkstra rows of
:meth:`~repro.topology.routing.Router.pair_paths` and the GUID placement
of :func:`~repro.fastpath.placement.batch_resolutions` in the fastpath,
and a cold substrate's prefix table, generated beside its topology
(:class:`~repro.experiments.common.Environment`).  All use the same
pattern: :func:`run_forked` one task per worker.  The caller runs task 0
itself and forks the rest, so the children read the caller's inputs
copy-on-write (nothing is pickled).  The fastpath's children return
their results only by writing arrays allocated with :func:`shared_array`;
the prefix-table child writes an array file
(:func:`repro.topology.datasets.write_arrays`) that the parent reads back
with its digest checked.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
from typing import Callable, List, Tuple, Type

import numpy as np

from .errors import WorkerError


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(n_jobs: int, tasks: int) -> int:
    """Processes to split ``tasks`` equal shares over: at most ``n_jobs``
    and ``tasks``, and ``1`` where the platform cannot ``fork``."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(n_jobs, tasks))


def shared_array(shape: Tuple[int, ...], dtype: type) -> np.ndarray:
    """A zeroed array in anonymous shared memory: what a forked child
    writes into it, the parent reads after :func:`run_forked`."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape, dtype=np.int64))
    buffer = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def run_forked(
    work: Callable[[int], None],
    workers: int,
    what: str,
    error: Type[Exception] = WorkerError,
) -> None:
    """Call ``work(w)`` for every ``w < workers``: ``w = 0`` in this
    process, the others in forked children, all at once.

    Every child is joined, also when ``work(0)`` raises.  A child that
    exits non-zero (an exception or a kill) raises ``error`` naming the
    ``what`` workers that failed, after all of them have stopped.
    """
    ctx = multiprocessing.get_context("fork")
    started: List[multiprocessing.process.BaseProcess] = []
    try:
        for w in range(1, workers):
            proc = ctx.Process(target=work, args=(w,))
            proc.start()
            started.append(proc)
        work(0)
    finally:
        for proc in started:
            proc.join()
    failed = [proc.exitcode for proc in started if proc.exitcode != 0]
    if failed:
        raise error(f"{len(failed)} {what} worker(s) failed (exit codes {failed})")
