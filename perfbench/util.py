"""Helpers shared by the workloads: timing, statistics and run metadata."""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence

import numpy as np

#: Iterations of the host-speed probe loop (about 8 ms on a 2-core host).
REF_LOOP_N = 100_000
#: Probe time that the gated wall times are rescaled to (about the
#: probe's time on a quiet 2-core x86 host).  A shared host's speed can
#: drift by a third within minutes as its neighbours load it, and
#: CPU-bound work drifts with it; rescaling by the probes taken during it
#: takes most of that drift out and leaves a change of the program's own
#: cost.
REF_LOOP_NOMINAL_S = 0.008
#: Wall seconds between two host probes inside a timed section.
PROBE_EVERY_S = 0.1

#: Total time spent in host probes so far (see :func:`work_clock`).
_probe_total_s = 0.0


def ref_loop_s() -> float:
    """Thread CPU time of a fixed pure-Python loop, to tell a slow host
    apart from a slow change.  CPU time rather than wall time, so that a
    program that keeps both cores busy (forked shards) does not slow the
    probe by time-sharing a core with it."""
    global _probe_total_s
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i * i % 7
    cpu = time.thread_time() - cpu0
    _probe_total_s += time.perf_counter() - wall0
    return cpu


def work_clock() -> float:
    """``time.perf_counter()`` less the time spent in host probes, so a
    probe that fires inside a timed call is not charged to it."""
    return time.perf_counter() - _probe_total_s


@contextmanager
def probing(probes: List[float]) -> Iterator[None]:
    """Append a host probe to ``probes`` every :data:`PROBE_EVERY_S` of
    wall time inside the block.  A timer signal triggers it, so it also
    samples the host during work the benchmark cannot split, such as one
    ``run_fig4`` call; the handler runs between bytecodes, so it never
    cuts a C call short."""

    def probe(_signum, _frame) -> None:
        probes.append(ref_loop_s())

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def speed_factor(probes: Sequence[float]) -> float:
    """What rescales a wall time to a host on which the probe loop takes
    :data:`REF_LOOP_NOMINAL_S`; ``probes`` are the probe times taken
    during and beside the timed section."""
    return REF_LOOP_NOMINAL_S / (sum(probes) / len(probes))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 1) of unsorted ``values``."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("percentile of an empty sample")
    rank = min(ordered.size - 1, max(0, math.ceil(q * ordered.size) - 1))
    return float(ordered[rank])


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> Dict[str, object]:
    """Manifest fields of one run record."""
    import scipy

    from repro.obs.manifest import current_git_sha

    return {
        "git_sha": current_git_sha() or "unknown",
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class RunResult:
    """What one timed phase measured, for ``run.py`` to report.

    ``busy_s`` is the phase's busy time (wall time for the offline
    workloads, process CPU for the rate-paced live one): the traced run's
    overhead is the difference between its busy time and the untraced
    run's.  ``timings`` are per-layer figures only the untraced run can
    give honestly (per-call wall times); ``counts`` come from the traced
    run.  ``lookup_ms`` is each lookup's latency as its caller sees it
    (see the README).  ``payload`` is whatever the output check needs.
    """

    run_s: float
    busy_s: float
    attempted: int
    failed: int
    lookup_ms: Sequence[float]
    timings: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    payload: Any = None
