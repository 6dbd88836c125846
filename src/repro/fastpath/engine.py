"""The batched lookup/insert engine (semantically identical to the resolver).

:class:`FastpathEngine` executes the DMap protocol arithmetic of
:class:`~repro.core.resolver.DMapResolver` over whole workloads at once:

* GUIDs are placed **once** per unique identifier (the scalar resolver
  re-derives the K hosting ASs on every lookup);
* the path term of every (lookup, candidate) cell comes from one
  :meth:`~repro.topology.routing.Router.pair_paths` call for the whole
  batch, which computes each needed Dijkstra row once, derives the rest
  from neighbour rows, and keeps none; replica order is a row-wise
  stable ``argsort`` whose tie-breaking provably matches the stable sort
  in :class:`~repro.core.replication.ReplicaSelector`;
* the GUID placement and the Dijkstra rows behind the path cells can
  be spread over ``n_jobs`` processes; the walk runs in the calling
  process;
* every lookup goes through one walk, evaluated in slices of at most
  :data:`WALK_ROWS` rows: the §III-C local-replica race and the
  §III-D.3 failed-attempt accounting (one RTT per "GUID missing", an
  adaptive timeout per dead replica) become row-wise prefix sums over
  the walk-cost matrix.  A failure-free lookup is the walk over an
  all-hit outcome matrix;
* a K sweep (Fig. 4) runs in the same pass: each slice evaluates every
  K on the first K columns of the max-K placement, so the path cells
  are computed once per sweep rather than once per K.

Latency arithmetic reproduces the scalar path bit for bit: the float32
path cells equal the router's rows, and keys and RTTs widen them to
float64 before the same left-to-right ``intra + path + intra`` sum as
the scalar rule ``Router.one_way_costs``, so equivalence tests can
assert exact equality, not just closeness.

Deliberate limits (the scalar resolver stays the oracle):

* the prefix table must not mutate between placement and lookup — BGP
  churn replays belong to :class:`DMapResolver` / :mod:`repro.sim`;
* the engine models the *converged* post-write state: every global
  replica of an inserted GUID holds the mapping (failure models can
  still inject timeouts/stale misses per (AS, GUID) pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..bgp.table import GlobalPrefixTable
from ..core.guid import GUID, guid_like
from ..core.resolver import (
    DEFAULT_TIMEOUT_MS,
    OUTCOME_HIT,
    OUTCOME_MISSING,
    OUTCOME_TIMEOUT,
    FailureModel,
    adaptive_timeout_ms,
    local_branch_end_ms,
)
from ..core.replication import SELECTION_POLICIES
from ..errors import ConfigurationError, RoutingError
from ..hashing.hashers import Sha256Hasher
from ..hashing.rehash import GuidPlacer, Placer
from ..obs.trace import (
    FAILURE_EXHAUSTED,
    NULL_TRACER,
    AttemptTrace,
    PlacementRecord,
    QueryTrace,
    Tracer,
    hash_index_of,
)
from ..topology.routing import Router
from .placement import batch_resolutions

#: Integer outcome codes for the vectorized walk.
_HIT, _MISSING, _TIMEOUT = 0, 1, 2
_OUTCOME_CODES = {
    OUTCOME_HIT: _HIT,
    OUTCOME_MISSING: _MISSING,
    OUTCOME_TIMEOUT: _TIMEOUT,
}
_CODE_OUTCOMES = {code: name for name, code in _OUTCOME_CODES.items()}

#: Most lookup rows one walk evaluation holds.  A block of source groups
#: is walked in slices of this many rows, which bounds the walk's
#: (rows × K) temporaries however many lookups one source issues.
WALK_ROWS = 4096


@dataclass
class GuidBatch:
    """A workload's unique GUIDs with their (frozen) placements.

    Attributes
    ----------
    guids:
        Unique identifiers, in workload order.
    placements:
        ``(len(guids), K)`` hosting ASNs in replica order.
    local_asns:
        Current attachment AS per GUID (where the §III-C local copy
        lives), or ``-1`` when the GUID has no local copy.
    hash_attempts / via_deputy:
        ``(len(guids), K)`` Algorithm 1 provenance planes (hash
        applications per chain; deputy-fallback flag), matching the
        scalar placer's ``resolve_all`` exactly.
    """

    guids: List[GUID]
    placements: np.ndarray
    local_asns: np.ndarray
    hash_attempts: np.ndarray
    via_deputy: np.ndarray

    def placement_records(self, guid_index: int) -> Tuple[PlacementRecord, ...]:
        """The trace-layer placement view of one indexed GUID."""
        asns = self.placements[guid_index]
        return tuple(
            PlacementRecord(
                int(asn),
                int(self.hash_attempts[guid_index, j]),
                bool(self.via_deputy[guid_index, j]),
            )
            for j, asn in enumerate(asns)
        )


@dataclass
class BatchLookupResult:
    """Per-lookup outcomes, aligned with the query arrays passed in."""

    rtt_ms: np.ndarray
    served_by: np.ndarray
    used_local: np.ndarray
    attempts: np.ndarray
    success: np.ndarray

    def __len__(self) -> int:
        return len(self.rtt_ms)

    @classmethod
    def empty(cls, n: int) -> "BatchLookupResult":
        """A result of ``n`` rows, to be filled slice by slice."""
        return cls(
            np.empty(n, dtype=np.float64),
            np.full(n, -1, dtype=np.int64),
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=bool),
        )

    def scatter(self, rows: np.ndarray, columns: Sequence[np.ndarray]) -> None:
        """Write one slice's ``(rtt, served, used_local, attempts,
        success)`` columns at ``rows``."""
        planes = (self.rtt_ms, self.served_by, self.used_local, self.attempts, self.success)
        for plane, values in zip(planes, columns):
            plane[rows] = values


class FastpathEngine:
    """Vectorized twin of :class:`~repro.core.resolver.DMapResolver`.

    Constructor parameters mirror the resolver's; ``placer`` is any of
    the batchable placers of :mod:`repro.fastpath.placement`.
    """

    def __init__(
        self,
        table: GlobalPrefixTable,
        router: Router,
        k: int = 5,
        selection_policy: str = "latency",
        local_replica: bool = True,
        timeout_ms: float = DEFAULT_TIMEOUT_MS,
        placer: Optional[Placer] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if timeout_ms <= 0:
            raise ConfigurationError("timeout_ms must be positive")
        if selection_policy not in SELECTION_POLICIES:
            raise ConfigurationError(
                f"unknown policy {selection_policy!r}; "
                f"expected one of {SELECTION_POLICIES}"
            )
        self.table = table
        self.router = router
        self.placer = placer or GuidPlacer(
            Sha256Hasher(k, address_bits=table.bits), table
        )
        self.selection_policy = selection_policy
        self.local_replica = local_replica
        self.timeout_ms = timeout_ms
        # Explicit None check: an empty CollectingTracer is falsy (len 0).
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def k(self) -> int:
        """Replication factor."""
        return self.placer.k

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def index_guids(
        self,
        guids: Sequence[Union[GUID, int, str]],
        local_asns: Optional[Sequence[int]] = None,
        n_jobs: int = 1,
    ) -> GuidBatch:
        """Resolve every GUID's K hosting ASs once, up front, against the
        placer's BGP view as it stands at this call.

        ``local_asns`` records where each GUID's local copy currently
        lives (its latest insert/update source); omit it when the
        engine's ``local_replica`` is off.  ``n_jobs`` processes share
        the GUIDs (:func:`~repro.fastpath.placement.batch_resolutions`);
        the batch is the same for every ``n_jobs``.
        """
        glist = [guid_like(g) for g in guids]
        values = [g.value for g in glist]
        placements, hash_attempts, via_deputy = batch_resolutions(
            self.placer, values, n_jobs=n_jobs
        )
        if local_asns is None:
            local = np.full(len(glist), -1, dtype=np.int64)
        else:
            local = np.asarray(local_asns, dtype=np.int64)
            if local.shape != (len(glist),):
                raise ConfigurationError(
                    "local_asns must align one-to-one with guids"
                )
        return GuidBatch(glist, placements, local, hash_attempts, via_deputy)

    # ------------------------------------------------------------------
    # Write path (accounting only — the engine keeps no stores)
    # ------------------------------------------------------------------
    def write_rtts(
        self,
        batch: GuidBatch,
        guid_idx: np.ndarray,
        sources: np.ndarray,
    ) -> np.ndarray:
        """Insert/update RTTs: the max of the K parallel replica writes."""
        guid_idx = np.asarray(guid_idx, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        cand = batch.placements[guid_idx]
        path, _ = self._path_cells(batch, guid_idx, sources)
        _key, rtt = self._prepare(sources, cand, path)
        if not np.all(np.isfinite(rtt)):
            row, col = np.argwhere(~np.isfinite(rtt))[0]
            raise RoutingError(
                f"AS {int(cand[row, col])} unreachable from AS {int(sources[row])}"
            )
        return rtt.max(axis=1)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def lookup_batch(
        self,
        batch: GuidBatch,
        guid_idx: np.ndarray,
        sources: np.ndarray,
        failure_model: Optional[FailureModel] = None,
        n_jobs: int = 1,
        issued_at: Optional[np.ndarray] = None,
        k_values: Optional[Sequence[int]] = None,
    ) -> Union[BatchLookupResult, Dict[int, BatchLookupResult]]:
        """Resolve many lookups; row ``i`` queries ``batch.guids[guid_idx[i]]``
        from AS ``sources[i]``.

        ``failure_model`` is the resolver's: its ``lookup_outcome(asn,
        guid)`` fates each global contact and its ``is_down(asn)`` the
        querier's local branch.  It must be deterministic per (AS, GUID)
        so batch evaluation order cannot change outcomes.  ``n_jobs``
        processes share the Dijkstra rows of the path cells
        (:meth:`Router.pair_paths`); the walk runs in this process, and
        results are the same for every ``n_jobs``.
        ``issued_at`` stamps each lookup's issue time onto its emitted
        trace (tracing only; the arithmetic itself is time-free).

        ``k_values`` sweeps several replication factors over the same
        lookups and returns ``{K: result}``.  K evaluates the first K
        replica columns of ``batch``, so each K is at most the batch's
        width; every placer's function ``i`` is independent of K, so
        those columns are the placement at K.  The path cells are
        computed once for the whole sweep.  Without ``k_values`` the
        lookups run at the batch's K and one result is returned.
        """
        guid_idx = np.asarray(guid_idx, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        if guid_idx.shape != sources.shape or guid_idx.ndim != 1:
            raise ConfigurationError("guid_idx and sources must be 1-D and aligned")
        sweep = self._sweep(batch, k_values)
        n = len(guid_idx)
        tracing = self.tracer.enabled
        traces_by_k: Dict[int, List[QueryTrace]] = {k: [] for k in sweep}
        times = None
        if tracing:
            times = (
                np.zeros(n, dtype=np.float64)
                if issued_at is None
                else np.asarray(issued_at, dtype=np.float64)
            )
            if times.shape != (n,):
                raise ConfigurationError(
                    "issued_at must align one-to-one with guid_idx"
                )
        placement_cache: Dict[int, Tuple[PlacementRecord, ...]] = {}
        path, hop_path = self._path_cells(
            batch, guid_idx, sources, self.selection_policy == "hops", n_jobs
        )
        local_end, down = self._local_branches(sources, failure_model)
        results = {k: BatchLookupResult.empty(n) for k in sweep}
        for start in range(0, n, WALK_ROWS):
            rows = slice(start, min(start + WALK_ROWS, n))
            src, gidx = sources[rows], guid_idx[rows]
            s_cand = batch.placements[gidx]
            key, rtt_all = self._prepare(
                src, s_cand, path[rows],
                None if hop_path is None else hop_path[rows],
            )
            outcome = (
                np.full(s_cand.shape, _HIT, dtype=np.int8)
                if failure_model is None
                else self._outcome_matrix(batch, gidx, s_cand, failure_model)
            )
            has_local = ~down[rows] & (batch.local_asns[gidx] == src)
            for k in sweep:
                columns, planes = self._walk(
                    src, s_cand[:, :k], key[:, :k], rtt_all[:, :k],
                    outcome[:, :k], has_local, local_end[rows],
                )
                results[k].scatter(rows, columns)
                if tracing:
                    traces_by_k[k].extend(self._walk_traces(
                        src, batch, gidx, columns, planes, local_end[rows],
                        down[rows], times[rows], placement_cache,
                    ))
        for result in results.values():
            if not np.all(np.isfinite(result.rtt_ms)):
                bad = int(np.flatnonzero(~np.isfinite(result.rtt_ms))[0])
                raise RoutingError(
                    f"lookup {bad} reached an unreachable replica "
                    f"(source AS {int(sources[bad])})"
                )
        # Emit K by K, each in input-row order (slices run in input
        # order), so raw emission order matches the workload's issue order
        # (the canonical JSONL sort is on top).
        for k in sweep:
            for trace in traces_by_k[k]:
                self.tracer.record(trace)
        return results if k_values is not None else results[sweep[0]]

    def _sweep(
        self, batch: GuidBatch, k_values: Optional[Sequence[int]]
    ) -> Tuple[int, ...]:
        """The replication factors one lookup pass evaluates."""
        width = batch.placements.shape[1]
        if k_values is None:
            return (width,)
        sweep = tuple(int(k) for k in k_values)
        if not sweep or len(set(sweep)) != len(sweep) or not all(
            1 <= k <= width for k in sweep
        ):
            raise ConfigurationError(
                f"k_values must be distinct and within [1, {width}], "
                f"got {list(k_values)}"
            )
        return sweep

    def _path_cells(
        self,
        batch: GuidBatch,
        guid_idx: np.ndarray,
        sources: np.ndarray,
        hops: bool = False,
        n_jobs: int = 1,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The float32 path latency cells from each row's source to its
        GUID's replicas, and with ``hops`` the hop cells (else ``None``),
        from one plan of :meth:`Router.pair_paths` over ``n_jobs``."""
        router = self.router
        src_idx = router.indices_of(sources)
        cand_idx = router.indices_of(batch.placements)[guid_idx]
        if hops:
            return router.pair_paths_and_hops(src_idx, cand_idx, n_jobs=n_jobs)
        return router.pair_paths(src_idx, cand_idx, n_jobs=n_jobs), None

    def _local_branches(
        self, sources: np.ndarray, model: Optional[FailureModel] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(local_end, down)`` per row: when the querier's §III-C local
        reply (or its timer) lands, and whether the querier's own service
        is down.  Evaluated once per distinct source AS."""
        local_end = np.zeros(len(sources), dtype=np.float64)
        down = np.zeros(len(sources), dtype=bool)
        if not self.local_replica or len(sources) == 0:
            return local_end, down
        asns, inverse = np.unique(sources, return_inverse=True)
        is_down = np.array(
            [model is not None and bool(model.is_down(s)) for s in asns.tolist()],
            dtype=bool,
        )
        ends = np.array(
            [
                local_branch_end_ms(self.router, s, d, self.timeout_ms)
                for s, d in zip(asns.tolist(), is_down.tolist())
            ],
            dtype=np.float64,
        )
        return ends[inverse], is_down[inverse]

    # -- one slice -------------------------------------------------------
    def _prepare(
        self,
        src: np.ndarray,
        cand: np.ndarray,
        path: np.ndarray,
        hop_path: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Selection keys and RTTs of a slice of rows from its path cells.

        ``one_way = intra(src) + path + intra(cand)`` with the path widened
        to float64 (``intra(src)`` alone where the candidate is the
        querier's own AS), exactly the per-element sum of the scalar rule
        ``Router.one_way_costs``; the RTT is ``2.0 * one_way``.  Keys are
        the one-way latencies, or under the hop policy the hop cells (0
        for the querier's own AS, as ``Router.hop_costs``), as in
        ``ReplicaSelector.ranked``.
        """
        intra = self.router.intra_array
        src_idx = self.router.indices_of(src)
        cand_idx = self.router.indices_of(cand)
        same = cand_idx == src_idx[:, None]
        src_intra = intra[src_idx][:, None]
        one_way = src_intra + path.astype(np.float64) + intra[cand_idx]
        one_way = np.where(same, src_intra, one_way)
        if hop_path is None:
            key = one_way
        else:
            key = np.where(same, 0.0, hop_path.astype(np.float64))
        return key, 2.0 * one_way

    def _walk(
        self,
        src: np.ndarray,
        cand: np.ndarray,
        key: np.ndarray,
        rtt_all: np.ndarray,
        outcome: np.ndarray,
        has_local: np.ndarray,
        local_end: np.ndarray,
    ) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
        """The §III-D.3 walk and the §III-C local race for a slice of rows
        at one K: ``cand`` and the planes beside it hold only the first K
        replica columns, and ``src`` is each row's querier.

        Returns the result columns ``(rtt, served, used_local, attempts,
        success)`` and the planes a trace reads: ``(s_cand, s_out, cost,
        issued, branch, local_entry)``, the first three in walk order.
        """
        m, k = cand.shape
        rows = np.arange(m)
        # The local request is launched only when the querier is not
        # itself a global candidate (otherwise the walk covers it).
        branch = (
            ~(cand == src[:, None]).any(axis=1)
            if self.local_replica
            else np.zeros(m, dtype=bool)
        )
        local_entry = branch & has_local

        order = np.argsort(key, axis=1, kind="stable")
        s_cand = np.take_along_axis(cand, order, axis=1)
        s_out = np.take_along_axis(outcome, order, axis=1)
        s_rtt = np.take_along_axis(rtt_all, order, axis=1)
        # Duplicate hash chains landing in one AS are a single queryable
        # host: later occurrences are skipped at zero cost.
        dup = np.zeros((m, k), dtype=bool)
        for j in range(1, k):
            dup[:, j] = (s_cand[:, :j] == s_cand[:, j : j + 1]).any(axis=1)
        cost = np.where(
            s_out == _TIMEOUT, adaptive_timeout_ms(self.timeout_ms, s_rtt), s_rtt
        )
        cost = np.where(dup, 0.0, cost)
        hit = (~dup) & (s_out == _HIT)
        has_hit = hit.any(axis=1)
        first_hit = np.argmax(hit, axis=1)
        cols = np.arange(k)
        after = has_hit[:, None] & (cols[None, :] > first_hit[:, None])
        walk_cost = np.where(after, 0.0, cost)
        elapsed = np.cumsum(walk_cost, axis=1)
        elapsed_before = elapsed - walk_cost
        executed = (~dup) & ~after

        global_rtt = elapsed[rows, first_hit]
        fail_elapsed = elapsed[:, -1]
        won = local_entry & (~has_hit | (local_end <= global_rtt))
        success = has_hit | local_entry
        rtt = np.where(
            won,
            local_end,
            np.where(
                has_hit,
                global_rtt,
                np.where(branch, np.maximum(fail_elapsed, local_end), fail_elapsed),
            ),
        )
        served = np.where(
            won, src, np.where(has_hit, s_cand[rows, first_hit], -1)
        )
        # The attempts the walk issued: when the local race won, only
        # those issued strictly before the local reply landed.
        issued = executed & (
            ~won[:, None] | (elapsed_before < local_end[:, None])
        )
        attempts = issued.sum(axis=1)
        return (rtt, served, won, attempts, success), (
            s_cand, s_out, cost, issued, branch, local_entry,
        )

    # -- trace reconstruction (tracing runs only) ----------------------
    def _walk_traces(
        self,
        src: np.ndarray,
        batch: GuidBatch,
        gidx: np.ndarray,
        columns: Tuple[np.ndarray, ...],
        planes: Tuple[np.ndarray, ...],
        local_end: np.ndarray,
        down: np.ndarray,
        issued_at: np.ndarray,
        placement_cache: Dict[int, Tuple[PlacementRecord, ...]],
    ) -> List[QueryTrace]:
        """The per-row traces of one :meth:`_walk`.

        A trace records exactly the attempts the walk ``issued``, which
        are the attempts the scalar resolver makes, so the reconstructed
        streams match the scalar resolver's record for record.  Placement
        records are the batch's (cached) full-width records cut to K.
        """
        rtt, served, won, _attempts, success = columns
        s_cand, s_out, cost, issued, branch, local_entry = planes
        m, k = s_cand.shape
        traces: List[QueryTrace] = []
        for r in range(m):
            gi = int(gidx[r])
            placement = placement_cache.get(gi)
            if placement is None:
                placement = batch.placement_records(gi)
                placement_cache[gi] = placement
            placement = placement[:k]
            attempt_records = tuple(
                AttemptTrace(
                    int(s_cand[r, j]),
                    hash_index_of(placement, int(s_cand[r, j])),
                    _CODE_OUTCOMES[int(s_out[r, j])],
                    float(cost[r, j]),
                )
                for j in range(k)
                if issued[r, j]
            )
            launched = bool(branch[r])
            local_outcome = None
            if launched:
                if bool(down[r]):
                    local_outcome = OUTCOME_TIMEOUT
                elif bool(local_entry[r]):
                    local_outcome = OUTCOME_HIT
                else:
                    local_outcome = OUTCOME_MISSING
            ok = bool(success[r])
            traces.append(
                QueryTrace(
                    guid_value=batch.guids[gi].value,
                    source_asn=int(src[r]),
                    issued_at=float(issued_at[r]),
                    k=len(placement),
                    placement=placement,
                    attempts=attempt_records,
                    local_launched=launched,
                    local_outcome=local_outcome,
                    local_end_ms=float(local_end[r]) if launched else None,
                    used_local=bool(won[r]),
                    served_by=int(served[r]) if ok else None,
                    rtt_ms=float(rtt[r]),
                    success=ok,
                    failure_cause=None if ok else FAILURE_EXHAUSTED,
                )
            )
        return traces

    def _outcome_matrix(
        self,
        batch: GuidBatch,
        gidx: np.ndarray,
        cand: np.ndarray,
        model: FailureModel,
    ) -> np.ndarray:
        """Outcome codes per (row, replica), memoized per (AS, GUID)."""
        m, k = cand.shape
        out = np.empty((m, k), dtype=np.int8)
        memo: Dict[Tuple[int, int], int] = {}
        for r in range(m):
            gi = int(gidx[r])
            guid = batch.guids[gi]
            for c in range(k):
                asn = int(cand[r, c])
                cached = memo.get((asn, gi))
                if cached is None:
                    raw = model.lookup_outcome(asn, guid)
                    cached = _OUTCOME_CODES.get(raw)
                    if cached is None:
                        raise ConfigurationError(
                            f"failure model returned unknown outcome {raw!r}"
                        )
                    memo[(asn, gi)] = cached
                out[r, c] = cached
        return out

