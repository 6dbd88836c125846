"""Batched replica placement: vectorized Algorithm 1 and §VII variants.

Mirrors the scalar placers bit for bit:

* :class:`~repro.hashing.rehash.GuidPlacer` — hash, longest-prefix match
  through a frozen :class:`~repro.bgp.interval_index.IntervalIndex`
  (exact vs. the trie by construction), re-hash the IP-hole residue with
  the same function index, deputy-AS fallback for exhausted chains;
* :class:`~repro.hashing.asnum_placer.RosterPlacer` (the two §VII
  variants) — hash, then the placer's own vectorized roster
  :meth:`~repro.hashing.asnum_placer.RosterPlacer.slots`.

The hash layer dispatches on the family: :class:`FastHasher` uses its
native ``hash_batch``, the salted SHA-256 reference family the resolver
defaults to its ``hash_many`` loop; each GUID is hashed once per replica
chain instead of once per *lookup*.  Any other placer or hash family is
rejected with :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..bgp.interval_index import HOLE, IntervalIndex
from ..errors import ConfigurationError
from ..hashing.asnum_placer import RosterPlacer
from ..hashing.hashers import FastHasher, HashFamily, Sha256Hasher
from ..hashing.rehash import GuidPlacer, Placer
from ..workers import run_forked, shared_array, worker_count

#: Loose GUID input: raw integer identifier values.
GuidValues = Union[Sequence[int], np.ndarray]

#: Fewest GUID rows :func:`batch_resolutions` gives one worker process;
#: a smaller batch is placed in fewer processes (a fork costs about as
#: much as placing a few hundred GUIDs).
WORKER_ROWS = 1024


def _hash_many(family: HashFamily, values: GuidValues, index: int) -> np.ndarray:
    """Apply hash function ``index`` to every value; returns ``uint64``.

    Bit-identical to looping :meth:`HashFamily.hash_one`; the
    :class:`FastHasher` branch uses the vectorized kernel, the
    :class:`Sha256Hasher` one its batch loop.
    """
    if isinstance(family, FastHasher):
        arr = np.asarray(values)
        if arr.dtype == np.uint64:
            folded = arr  # already 64-bit: folding is the identity
        else:
            folded = FastHasher.fold_guids([int(v) for v in values])
        return family.hash_batch(folded, index)
    if not isinstance(family, Sha256Hasher):
        raise ConfigurationError(
            f"no batch kernel for hash family {type(family).__name__}"
        )
    ints = (
        values.tolist() if isinstance(values, np.ndarray) else [int(v) for v in values]
    )
    return np.asarray(family.hash_many(ints, index), dtype=np.uint64)


def _rehash_many(
    family: HashFamily, addresses: np.ndarray, index: int
) -> np.ndarray:
    """Vectorized :meth:`HashFamily.rehash` over an address array."""
    if isinstance(family, FastHasher):
        return family.rehash_batch(addresses, index)
    return _hash_many(family, addresses, index)  # Sha256Hasher: rehash is hash_one


def resolve_batch(
    placer: GuidPlacer,
    guid_values: GuidValues,
    index: Optional[IntervalIndex] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :meth:`GuidPlacer.resolve_all` over many GUIDs.

    Returns ``(asns, attempts, via_deputy)`` of shape ``(n, K)`` — the
    hosting AS per replica chain, the number of hash applications used,
    and the deputy-fallback flag, exactly as the scalar placer computes
    them.  ``index`` is a frozen snapshot of ``placer.table``; the batch
    is only valid while the table does not mutate (BGP churn requires the
    scalar oracle).
    """
    if index is None:
        index = placer.table.build_interval_index()
    values = (
        guid_values
        if isinstance(guid_values, np.ndarray)
        else list(guid_values)
    )
    n = len(values)
    k = placer.k
    family = placer.hash_family
    max_rehashes = placer.max_rehashes
    asns = np.full((n, k), HOLE, dtype=np.int64)
    attempts = np.zeros((n, k), dtype=np.int64)
    via_deputy = np.zeros((n, k), dtype=bool)

    for i in range(k):
        addresses = _hash_many(family, values, i)
        unresolved = np.arange(n)
        for attempt in range(1, max_rehashes + 1):
            owners = index.lookup_batch(addresses[unresolved])
            hit = owners != HOLE
            hit_rows = unresolved[hit]
            asns[hit_rows, i] = owners[hit]
            attempts[hit_rows, i] = attempt
            unresolved = unresolved[~hit]
            if len(unresolved) == 0:
                break
            if attempt < max_rehashes:
                addresses[unresolved] = _rehash_many(
                    family, addresses[unresolved], i
                )
        # Deputy fallback (≈0.06% of chains at M=10): the scalar
        # nearest-prefix descent (O(bits · log n)) is fine at this volume.
        for row in unresolved.tolist():
            announcement, _dist = placer.table.nearest(int(addresses[row]))
            asns[row, i] = announcement.asn
            attempts[row, i] = max_rehashes
            via_deputy[row, i] = True
    return asns, attempts, via_deputy


def _roster_batch(placer: RosterPlacer, values: List[int]) -> np.ndarray:
    out = np.empty((len(values), placer.k), dtype=np.int64)
    for i in range(placer.k):
        slots = placer.slots(_hash_many(placer.hash_family, values, i))
        out[:, i] = placer.roster[slots.astype(np.int64)]
    return out


def batch_hosting_asns(
    placer: Placer,
    guid_values: GuidValues,
    index: Optional[IntervalIndex] = None,
) -> np.ndarray:
    """Hosting AS numbers for many GUIDs: ``(n, K)`` in replica order."""
    asns, _attempts, _deputy = batch_resolutions(placer, guid_values, index)
    return asns


def placement_workers(n_guids: int, n_jobs: int) -> int:
    """Processes :func:`batch_resolutions` places ``n_guids`` GUIDs on:
    at most ``n_jobs``, each with at least :data:`WORKER_ROWS` rows."""
    return worker_count(n_jobs, n_guids // WORKER_ROWS)


def batch_resolutions(
    placer: Placer,
    guid_values: GuidValues,
    index: Optional[IntervalIndex] = None,
    n_jobs: int = 1,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(asns, hash_attempts, via_deputy)`` for many GUIDs, shape ``(n, K)``.

    The full Algorithm 1 provenance :meth:`GuidPlacer.resolve_all`
    carries, batched.  Roster placers (§VII variants) resolve every
    chain in one hash application and never need a deputy, so their
    provenance planes are constant.  Column ``i`` depends only on hash
    function ``i``, so the placement at ``K=k`` is the first ``k``
    columns of the placement at any larger K.

    A row depends only on its own GUID, so ``n_jobs`` processes
    (:func:`placement_workers`) each place one contiguous slice of the
    rows into shared planes (:func:`repro.workers.run_forked`); the
    planes are the same for every worker count.
    """
    values = [int(v) for v in guid_values]
    if isinstance(placer, GuidPlacer):
        if index is None:  # built once, before any fork shares it
            index = placer.table.build_interval_index()
    elif not isinstance(placer, RosterPlacer):
        raise ConfigurationError(f"no batch kernel for placer {placer!r}")
    workers = placement_workers(len(values), n_jobs)
    if workers < 2:
        return _resolutions(placer, values, index)
    planes = (
        shared_array((len(values), placer.k), np.int64),
        shared_array((len(values), placer.k), np.int64),
        shared_array((len(values), placer.k), bool),
    )
    edges = [len(values) * w // workers for w in range(workers + 1)]

    def place(w: int) -> None:
        rows = slice(edges[w], edges[w + 1])
        for plane, part in zip(planes, _resolutions(placer, values[rows], index)):
            plane[rows] = part

    run_forked(place, workers, "placement")
    return planes


def _resolutions(
    placer: Placer, values: List[int], index: Optional[IntervalIndex]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`batch_resolutions` of ``values`` in this process."""
    if isinstance(placer, GuidPlacer):
        return resolve_batch(placer, values, index)
    asns = _roster_batch(placer, values)
    return asns, np.ones_like(asns), np.zeros(asns.shape, dtype=bool)
