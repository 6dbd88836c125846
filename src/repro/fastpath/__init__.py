"""Vectorized batch execution engine for the DMap insert/lookup pipeline.

The scalar :class:`~repro.core.resolver.DMapResolver` replays the paper's
workload (10^5 inserts, 10^6 Mandelbrot-Zipf lookups, §IV-B.1) one GUID at
a time through Python; at paper scale that loop dominates wall-clock.
This package executes the *same protocol arithmetic* as whole numpy
arrays:

* :mod:`repro.fastpath.placement` — batch Algorithm 1 (GUID hashing,
  interval-index LPM, vectorized IP-hole rehash, deputy fallback) plus the
  §VII AS-number / weighted placement variants;
* :mod:`repro.fastpath.engine` — :class:`FastpathEngine`: replica
  selection as a row-wise stable sort over (source, candidate) path
  cells from one ``Router.pair_paths`` call, with the §III-C
  local-replica race and §III-D.3 failed-attempt accounting expressed as
  row-wise prefix sums.  ``n_jobs`` spreads the GUID placement and that
  call's Dijkstra rows over forked processes; the walk itself stays
  in-process.

The scalar resolver remains the semantic *oracle*: the engine is checked
against it per query (bit-identical chosen replicas, 1e-9-relative RTTs)
in ``tests/test_fastpath.py`` and continuously by the
``repro.validation`` differential harness's fastpath lane.
"""

from .engine import BatchLookupResult, FastpathEngine
from .placement import batch_hosting_asns, resolve_batch

__all__ = [
    "BatchLookupResult",
    "FastpathEngine",
    "batch_hosting_asns",
    "resolve_batch",
]
