"""Optional multiprocessing shard runner for paper-scale batches.

Lookups grouped by source AS are embarrassingly parallel: a group's
distances depend only on the router, and no group mutates shared state
(the engine keeps no stores).  The runner splits the source-AS groups of a batch into
``n_jobs`` row-balanced shards and fans them out over a fork-based
``multiprocessing.Pool``:

* the engine and :class:`~repro.fastpath.engine.GuidBatch` are published
  through a module global *before* forking, so workers inherit them
  copy-on-write and nothing heavyweight (trie, topology, CSR matrices)
  is ever pickled;
* each worker runs the same serial path the in-process run uses (one
  ``Router.pair_paths`` call for its shard, then the walk),
  and its per-row results are scattered back by explicit row indices —
  output is therefore bit-identical to ``n_jobs=1`` regardless of worker
  scheduling;
* platforms without the ``fork`` start method (or ``n_jobs=1``, or a
  single source group) silently fall back to the serial path.

Availability models are not supported here: probe callables may close
over unpicklable scenario state and their memoization is per-process, so
the engine only dispatches availability-free workloads to this runner.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .engine import BatchLookupResult, FastpathEngine, GuidBatch

#: (engine, batch) inherited by forked workers; set only around a Pool run.
_SHARED: Optional[Tuple[FastpathEngine, GuidBatch]] = None


def _run_shard(
    shard: Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]
) -> Dict[int, Tuple[np.ndarray, ...]]:
    """Worker body: run the serial engine over one shard's rows."""
    guid_idx, sources, sweep = shard
    engine, batch = _SHARED
    results = engine._lookup_serial(batch, guid_idx, sources, None, None, sweep)
    return {
        k: (r.rtt_ms, r.served_by, r.used_local, r.attempts, r.success)
        for k, r in results.items()
    }


def default_jobs() -> int:
    """Worker count when the caller asks for "all cores"."""
    return os.cpu_count() or 1


def _shard_rows(sources: np.ndarray, n_shards: int) -> List[np.ndarray]:
    """Split row indices into ≤ ``n_shards`` row-balanced shards, cutting
    only at source-AS group boundaries (so each source's distances are
    computed in exactly one worker)."""
    order = np.argsort(sources, kind="stable")
    sorted_src = sources[order]
    boundaries = np.flatnonzero(np.r_[True, sorted_src[1:] != sorted_src[:-1]])
    n_groups = len(boundaries)
    n_shards = max(1, min(n_shards, n_groups))
    # Cut the group-start offsets at evenly spaced row targets: groups are
    # contiguous in `order`, so each shard is one slice of it.
    targets = (np.arange(1, n_shards) * len(sources)) // n_shards
    cut_idx = np.searchsorted(boundaries, targets, side="left")
    cuts = np.unique(boundaries[np.clip(cut_idx, 0, n_groups - 1)])
    starts = np.r_[0, cuts[cuts > 0]]
    ends = np.r_[starts[1:], len(sources)]
    return [order[s:e] for s, e in zip(starts, ends) if e > s]


def run_sharded(
    engine: FastpathEngine,
    batch: GuidBatch,
    guid_idx: np.ndarray,
    sources: np.ndarray,
    n_jobs: int,
    k_values: Optional[Sequence[int]] = None,
) -> Union[BatchLookupResult, Dict[int, BatchLookupResult]]:
    """Execute a lookup batch across ``n_jobs`` worker processes.

    ``k_values`` is the K sweep of :meth:`FastpathEngine.lookup_batch`,
    with the same return convention.  Falls back to the serial path when
    sharding cannot help (one group, one job) or fork is unavailable.
    """
    global _SHARED
    sweep = tuple(k_values or (batch.placements.shape[1],))
    shards = _shard_rows(sources, n_jobs)
    ctx = None
    if len(shards) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            pass
    if ctx is None:
        results = engine._lookup_serial(batch, guid_idx, sources, None, None, sweep)
    else:
        results = {k: BatchLookupResult.empty(len(sources)) for k in sweep}
        _SHARED = (engine, batch)
        try:
            with ctx.Pool(processes=len(shards)) as pool:
                payloads = [(guid_idx[rows], sources[rows], sweep) for rows in shards]
                for rows, parts in zip(shards, pool.map(_run_shard, payloads)):
                    for k, columns in parts.items():
                        results[k].scatter(rows, columns)
        finally:
            _SHARED = None
    return results if k_values is not None else results[sweep[0]]
