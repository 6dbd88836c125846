"""The batched lookup/insert engine (semantically identical to the resolver).

:class:`FastpathEngine` executes the DMap protocol arithmetic of
:class:`~repro.core.resolver.DMapResolver` over whole workloads at once:

* GUIDs are placed **once** per unique identifier (the scalar resolver
  re-derives the K hosting ASs on every lookup);
* lookups are grouped by source AS, so each group needs exactly one
  cached Dijkstra row (computed a block of sources at a time); replica
  selection is a fancy-indexed row-wise ``argmin`` whose tie-breaking
  provably matches the stable sort in
  :class:`~repro.core.replication.ReplicaSelector`;
* a K sweep (Fig. 4) runs in the same pass: each group evaluates every
  K on the first K columns of the max-K placement, so a row is computed
  once per sweep rather than once per K;
* the §III-C local-replica race and the §III-D.3 failed-attempt
  accounting (one RTT per "GUID missing", an adaptive timeout per dead
  replica) become row-wise prefix sums over the walk-cost matrix.

Latency arithmetic reproduces the scalar path bit for bit: selection
keys use the same float32-row + float64-intra expression as
``Router.one_way_to_many``, and final RTTs widen the row to float64
before the identical left-to-right sum (see ``Router.rtt_to_many``), so
equivalence tests can assert exact equality, not just closeness.

Deliberate limits (the scalar resolver stays the oracle):

* the prefix table must not mutate between placement and lookup — BGP
  churn replays belong to :class:`DMapResolver` / :mod:`repro.sim`;
* the engine models the *converged* post-write state: every global
  replica of an inserted GUID holds the mapping (availability models can
  still inject timeouts/stale misses per (AS, GUID) pair);
* the ``"random"`` selection policy draws from a per-lookup RNG stream
  whose consumption order is inherently sequential, and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..bgp.table import GlobalPrefixTable
from ..core.guid import GUID, guid_like
from ..core.resolver import (
    DEFAULT_TIMEOUT_MS,
    OUTCOME_HIT,
    OUTCOME_MISSING,
    OUTCOME_TIMEOUT,
)
from ..errors import ConfigurationError, DMapError, RoutingError
from ..hashing.hashers import HashFamily, Sha256Hasher
from ..hashing.rehash import DEFAULT_MAX_REHASHES, GuidPlacer
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
from .placement import batch_resolutions, prefix_stable

#: Selection policies the batch engine reproduces exactly.
SUPPORTED_POLICIES = ("latency", "hops")

#: Integer outcome codes for the vectorized walk.
_HIT, _MISSING, _TIMEOUT = 0, 1, 2
_OUTCOME_CODES = {
    OUTCOME_HIT: _HIT,
    OUTCOME_MISSING: _MISSING,
    OUTCOME_TIMEOUT: _TIMEOUT,
}
_CODE_OUTCOMES = {code: name for name, code in _OUTCOME_CODES.items()}


class FastpathUnsupportedError(DMapError):
    """The requested configuration needs the scalar oracle."""


class _ProbeAdapter:
    """Wrap a bare ``(asn, guid) -> outcome`` probe as a failure model."""

    def __init__(self, probe: Callable[[int, GUID], str]) -> None:
        self._probe = probe

    def lookup_outcome(self, asn: int, guid: GUID) -> str:
        """Fate of a global lookup arriving at ``asn``."""
        return self._probe(asn, guid)

    def is_down(self, asn: int) -> bool:
        """Bare probes cannot mark a querier's own AS as down."""
        return False


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
    hash_attempts: Optional[np.ndarray] = None
    via_deputy: Optional[np.ndarray] = None

    def placement_records(self, guid_index: int) -> Tuple[PlacementRecord, ...]:
        """The trace-layer placement view of one indexed GUID."""
        asns = self.placements[guid_index]
        if self.hash_attempts is None or self.via_deputy is None:
            return tuple(PlacementRecord(int(asn), 1, False) for asn in asns)
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
        """A result of ``n`` rows, to be filled group by group."""
        return cls(
            np.empty(n, dtype=np.float64),
            np.full(n, -1, dtype=np.int64),
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=bool),
        )

    def scatter(self, rows: np.ndarray, columns: Sequence[np.ndarray]) -> None:
        """Write one group's ``(rtt, served, used_local, attempts,
        success)`` columns at ``rows``."""
        planes = (self.rtt_ms, self.served_by, self.used_local, self.attempts, self.success)
        for plane, values in zip(planes, columns):
            plane[rows] = values


class FastpathEngine:
    """Vectorized twin of :class:`~repro.core.resolver.DMapResolver`.

    Constructor parameters mirror the resolver's; ``placer`` may be any
    scheme :mod:`repro.fastpath.placement` knows how to batch.
    """

    def __init__(
        self,
        table: GlobalPrefixTable,
        router: Router,
        k: int = 5,
        hash_family: Optional[HashFamily] = None,
        selection_policy: str = "latency",
        local_replica: bool = True,
        max_rehashes: int = DEFAULT_MAX_REHASHES,
        timeout_ms: float = DEFAULT_TIMEOUT_MS,
        placer=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if timeout_ms <= 0:
            raise ConfigurationError("timeout_ms must be positive")
        if selection_policy not in SUPPORTED_POLICIES:
            raise FastpathUnsupportedError(
                f"selection policy {selection_policy!r} is not batchable; "
                f"use the scalar resolver (supported: {SUPPORTED_POLICIES})"
            )
        self.table = table
        self.router = router
        self.hash_family = hash_family or Sha256Hasher(k, address_bits=table.bits)
        self.placer = placer or GuidPlacer(self.hash_family, table, max_rehashes)
        self.selection_policy = selection_policy
        self.local_replica = local_replica
        self.timeout_ms = timeout_ms
        # Explicit None check: an empty CollectingTracer is falsy (len 0).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._interval = None

    @classmethod
    def from_resolver(cls, resolver) -> "FastpathEngine":
        """Build an engine sharing a resolver's exact configuration."""
        return cls(
            resolver.table,
            resolver.router,
            selection_policy=resolver.selector.policy,
            local_replica=resolver.local_replica,
            timeout_ms=resolver.timeout_ms,
            placer=resolver.placer,
            tracer=resolver.tracer,
        )

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
    ) -> GuidBatch:
        """Resolve every GUID's K hosting ASs once, up front.

        ``local_asns`` records where each GUID's local copy currently
        lives (its latest insert/update source); omit it when the
        engine's ``local_replica`` is off.
        """
        glist = [guid_like(g) for g in guids]
        values = [g.value for g in glist]
        if self._interval is None and isinstance(self.placer, GuidPlacer):
            self._interval = self.placer.table.build_interval_index()
        placements, hash_attempts, via_deputy = batch_resolutions(
            self.placer, values, self._interval
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
        out = np.empty(len(guid_idx), dtype=np.float64)
        for src, rows in self._source_groups(sources, hop_rows=False):
            cand = batch.placements[guid_idx[rows]]
            rtts = self.router.rtt_to_many(int(src), cand.ravel())
            out[rows] = rtts.reshape(cand.shape).max(axis=1)
        return out

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def lookup_batch(
        self,
        batch: GuidBatch,
        guid_idx: np.ndarray,
        sources: np.ndarray,
        availability=None,
        n_jobs: int = 1,
        issued_at: Optional[np.ndarray] = None,
        k_values: Optional[Sequence[int]] = None,
    ) -> Union[BatchLookupResult, Dict[int, BatchLookupResult]]:
        """Resolve many lookups; row ``i`` queries ``batch.guids[guid_idx[i]]``
        from AS ``sources[i]``.

        ``availability`` is either a failure model exposing
        ``lookup_outcome(asn, guid)`` / ``is_down(asn)`` (as in
        :mod:`repro.validation.scenarios`) or a bare probe callable; it
        must be deterministic per (AS, GUID) so batch evaluation order
        cannot change outcomes.  ``n_jobs > 1`` shards source-AS groups
        across worker processes (availability-free workloads only).
        ``issued_at`` stamps each lookup's issue time onto its emitted
        trace (tracing only; the arithmetic itself is time-free).

        ``k_values`` sweeps several replication factors over the same
        lookups and returns ``{K: result}``.  K evaluates the first K
        replica columns of ``batch``, so each K is at most the batch's
        width, and the placer must be :func:`prefix_stable`.  Each source
        group is visited once for the whole sweep, so each routing row is
        computed once.  Without ``k_values`` the lookups run at the
        batch's K and one result is returned.
        """
        guid_idx = np.asarray(guid_idx, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        if guid_idx.shape != sources.shape or guid_idx.ndim != 1:
            raise ConfigurationError("guid_idx and sources must be 1-D and aligned")
        sweep = self._sweep(batch, k_values)
        model = availability
        if model is not None and not hasattr(model, "lookup_outcome"):
            model = _ProbeAdapter(model)
        if n_jobs > 1:
            if model is not None:
                raise FastpathUnsupportedError(
                    "sharded execution supports availability-free workloads only"
                )
            if self.tracer.enabled:
                raise FastpathUnsupportedError(
                    "per-query traces cannot cross process shards; "
                    "run tracing with n_jobs=1"
                )
            from .runner import run_sharded

            results = run_sharded(self, batch, guid_idx, sources, n_jobs, sweep)
        else:
            results = self._lookup_serial(
                batch, guid_idx, sources, model, issued_at, sweep
            )
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
        if sweep != (width,) and not prefix_stable(self.placer):
            raise FastpathUnsupportedError(
                f"placer {type(self.placer).__name__} gives no K-prefix "
                "guarantee; sweep K with one engine per K"
            )
        return sweep

    def _lookup_serial(
        self,
        batch: GuidBatch,
        guid_idx: np.ndarray,
        sources: np.ndarray,
        model=None,
        issued_at: Optional[np.ndarray] = None,
        k_values: Optional[Sequence[int]] = None,
    ) -> Dict[int, BatchLookupResult]:
        sweep = tuple(k_values or (batch.placements.shape[1],))
        n = len(guid_idx)
        results = {k: BatchLookupResult.empty(n) for k in sweep}
        tracing = self.tracer.enabled
        trace_slots: Dict[int, List[Optional[QueryTrace]]] = (
            {k: [None] * n for k in sweep} if tracing else {}
        )
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
        hop_rows = self.selection_policy == "hops"
        for src, rows in self._source_groups(sources, hop_rows):
            groups = self._lookup_group(
                src,
                batch,
                guid_idx[rows],
                sweep,
                model,
                issued_at=times[rows] if tracing else None,
                placement_cache=placement_cache if tracing else None,
            )
            for k, group in zip(sweep, groups):
                results[k].scatter(rows, group[:5])
                if tracing:
                    slots = trace_slots[k]
                    for offset, row in enumerate(rows):
                        slots[int(row)] = group[5][offset]
        for result in results.values():
            if not np.all(np.isfinite(result.rtt_ms)):
                bad = int(np.flatnonzero(~np.isfinite(result.rtt_ms))[0])
                raise RoutingError(
                    f"lookup {bad} reached an unreachable replica "
                    f"(source AS {int(sources[bad])})"
                )
        # Emit K by K, each in input-row order, so raw emission order
        # matches the workload's issue order (the canonical JSONL sort is
        # on top).
        for k in sweep:
            for trace in trace_slots.get(k, ()):
                if trace is not None:
                    self.tracer.record(trace)
        return results

    def _source_groups(self, sources: np.ndarray, hop_rows: bool):
        """:func:`_iter_source_groups`, computing the latency (and, with
        ``hop_rows``, hop) rows of each next block of sources in one
        Dijkstra call."""
        groups = list(_iter_source_groups(sources))
        block = self.router.row_block
        for start in range(0, len(groups), block):
            chunk = groups[start : start + block]
            block_sources = [src for src, _rows in chunk]
            self.router.prefetch_rows(block_sources)
            if hop_rows:
                self.router.prefetch_rows(block_sources, hops=True)
            yield from chunk

    # -- one source-AS group -------------------------------------------
    def _selection_keys(self, src: int, cand_idx: np.ndarray) -> np.ndarray:
        """Ordering keys, identical to ``ReplicaSelector.order_candidates``."""
        router = self.router
        src_idx = router.topology.index_of(src)
        if self.selection_policy == "latency":
            # Same expression as Router.one_way_to_many (float32 row +
            # float64 intra), so ranking ties break identically.
            row = router.latency_row(src)
            intra = router.intra_array
            key = intra[src_idx] + row[cand_idx] + intra[cand_idx]
            key[cand_idx == src_idx] = intra[src_idx]
            return key
        row = router.hop_row(src)
        key = row[cand_idx].astype(np.float64)
        key[cand_idx == src_idx] = 0.0
        return key

    def _local_branch(
        self,
        src: int,
        cand: np.ndarray,
        local_of_rows: np.ndarray,
        model=None,
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """(branch_launched, local_entry, local_end) for one group.

        ``branch_launched`` marks rows whose querier fired the parallel
        local request (§III-C); ``local_entry`` the subset whose local
        store actually holds the mapping; ``local_end`` when the local
        reply (or its timeout) lands.
        """
        m = len(cand)
        if not self.local_replica:
            zeros = np.zeros(m, dtype=bool)
            return zeros, zeros, 0.0
        branch = ~(cand == src).any(axis=1)
        if model is not None and model.is_down(src):
            local_end = max(self.timeout_ms, 2.0 * self.router.rtt_ms(src, src))
            return branch, np.zeros(m, dtype=bool), local_end
        local_end = 2.0 * self.router.topology.intra_latency(src)
        return branch, branch & (local_of_rows == src), local_end

    def _lookup_group(
        self,
        src: int,
        batch: GuidBatch,
        gidx: np.ndarray,
        k_values: Sequence[int],
        model=None,
        issued_at: Optional[np.ndarray] = None,
        placement_cache: Optional[Dict[int, Tuple[PlacementRecord, ...]]] = None,
    ) -> List[Tuple[object, ...]]:
        """One source-AS group at every K of the sweep, in ``k_values`` order.

        Selection keys, RTTs and outcomes are computed once over all of
        the batch's replica columns; K reads their first K columns.
        """
        cand = batch.placements[gidx]
        key = self._selection_keys(src, self.router.indices_of(cand))
        rtt_all = self.router.rtt_to_many(src, cand.ravel(), strict=False)
        rtt_all = rtt_all.reshape(cand.shape)
        outcome = (
            None
            if model is None
            else self._outcome_matrix(src, batch, gidx, cand, model)
        )
        local_of_rows = batch.local_asns[gidx]
        return [
            self._evaluate_group(
                src,
                batch,
                gidx,
                cand[:, :k],
                key[:, :k],
                rtt_all[:, :k],
                None if outcome is None else outcome[:, :k],
                local_of_rows,
                model,
                issued_at,
                placement_cache,
            )
            for k in k_values
        ]

    def _evaluate_group(
        self,
        src: int,
        batch: GuidBatch,
        gidx: np.ndarray,
        cand: np.ndarray,
        key: np.ndarray,
        rtt_all: np.ndarray,
        outcome: Optional[np.ndarray],
        local_of_rows: np.ndarray,
        model,
        issued_at: Optional[np.ndarray],
        placement_cache: Optional[Dict[int, Tuple[PlacementRecord, ...]]],
    ) -> Tuple[object, ...]:
        """One group at one K: ``cand`` and the planes beside it hold
        only the first K replica columns."""
        m, k = cand.shape
        branch, local_entry, local_end = self._local_branch(
            src, cand, local_of_rows, model
        )
        rows = np.arange(m)
        tracing = placement_cache is not None

        if model is None:
            # Converged, failure-free: the best-ranked replica answers on
            # the first attempt; only the local race remains.
            choice = np.argmin(key, axis=1)
            global_rtt = rtt_all[rows, choice]
            won = local_entry & (local_end <= global_rtt)
            rtt = np.where(won, local_end, global_rtt)
            served = np.where(won, src, cand[rows, choice])
            attempts = np.where(won & (local_end <= 0.0), 0, 1)
            result = (rtt, served, won, attempts, np.ones(m, dtype=bool))
            if not tracing:
                return result
            traces = self._group_traces_converged(
                src, batch, gidx, cand, choice, global_rtt, branch,
                local_entry, local_end, won, rtt, served,
                issued_at, placement_cache,
            )
            return result + (traces,)

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
            s_out == _TIMEOUT, np.maximum(self.timeout_ms, 2.0 * s_rtt), s_rtt
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
        walk_len = executed.sum(axis=1)

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
        early = (executed & (elapsed_before < local_end)).sum(axis=1)
        attempts = np.where(won, early, walk_len)
        result = (rtt, served, won, attempts, success)
        if not tracing:
            return result
        traces = self._group_traces_walk(
            src, batch, gidx, s_cand, s_out, cost, executed, elapsed_before,
            won, branch, local_entry, local_end, rtt, served, success, model,
            issued_at, placement_cache,
        )
        return result + (traces,)

    # -- trace reconstruction (tracing runs only) ----------------------
    def _placement_of(
        self,
        batch: GuidBatch,
        guid_index: int,
        cache: Dict[int, Tuple[PlacementRecord, ...]],
        k: int,
    ) -> Tuple[PlacementRecord, ...]:
        """The GUID's placement records at K=``k``: a prefix of the
        batch's (cached) full-width records."""
        placement = cache.get(guid_index)
        if placement is None:
            placement = batch.placement_records(guid_index)
            cache[guid_index] = placement
        return placement[:k]

    def _group_traces_converged(
        self,
        src: int,
        batch: GuidBatch,
        gidx: np.ndarray,
        cand: np.ndarray,
        choice: np.ndarray,
        global_rtt: np.ndarray,
        branch: np.ndarray,
        local_entry: np.ndarray,
        local_end: float,
        won: np.ndarray,
        rtt: np.ndarray,
        served: np.ndarray,
        issued_at: np.ndarray,
        placement_cache: Dict[int, Tuple[PlacementRecord, ...]],
    ) -> List[QueryTrace]:
        """Traces for the model-free fast path (one hit, plus the race).

        Mirrors the scalar walk exactly: the best-ranked replica's hit is
        the only attempt, and it is part of the trace unless the local
        reply landed before the walk could even start (``local_end <= 0``).
        """
        traces: List[QueryTrace] = []
        k = cand.shape[1]
        for r in range(len(gidx)):
            gi = int(gidx[r])
            placement = self._placement_of(batch, gi, placement_cache, k)
            launched = bool(branch[r])
            won_r = bool(won[r])
            if won_r and local_end <= 0.0:
                attempt_records: Tuple[AttemptTrace, ...] = ()
            else:
                asn = int(cand[r, choice[r]])
                attempt_records = (
                    AttemptTrace(
                        asn,
                        hash_index_of(placement, asn),
                        OUTCOME_HIT,
                        float(global_rtt[r]),
                    ),
                )
            local_outcome = None
            if launched:
                local_outcome = (
                    OUTCOME_HIT if bool(local_entry[r]) else OUTCOME_MISSING
                )
            traces.append(
                QueryTrace(
                    guid_value=batch.guids[gi].value,
                    source_asn=src,
                    issued_at=float(issued_at[r]),
                    k=len(placement),
                    placement=placement,
                    attempts=attempt_records,
                    local_launched=launched,
                    local_outcome=local_outcome,
                    local_end_ms=float(local_end) if launched else None,
                    used_local=won_r,
                    served_by=int(served[r]),
                    rtt_ms=float(rtt[r]),
                    success=True,
                    failure_cause=None,
                )
            )
        return traces

    def _group_traces_walk(
        self,
        src: int,
        batch: GuidBatch,
        gidx: np.ndarray,
        s_cand: np.ndarray,
        s_out: np.ndarray,
        cost: np.ndarray,
        executed: np.ndarray,
        elapsed_before: np.ndarray,
        won: np.ndarray,
        branch: np.ndarray,
        local_entry: np.ndarray,
        local_end: float,
        rtt: np.ndarray,
        served: np.ndarray,
        success: np.ndarray,
        model,
        issued_at: np.ndarray,
        placement_cache: Dict[int, Tuple[PlacementRecord, ...]],
    ) -> List[QueryTrace]:
        """Traces for the availability-model walk.

        An attempt made it into the scalar trace iff the walk issued it:
        non-duplicate, at or before the first hit, and — when the local
        race won — issued strictly before the local reply landed.  That
        is exactly ``executed`` (and the ``elapsed_before < local_end``
        refinement for won rows), so the reconstructed streams match the
        scalar resolver's record for record.
        """
        m, k = s_cand.shape
        src_down = (
            self.local_replica and model is not None and model.is_down(src)
        )
        traces: List[QueryTrace] = []
        for r in range(m):
            gi = int(gidx[r])
            placement = self._placement_of(batch, gi, placement_cache, k)
            exec_mask = executed[r]
            if bool(won[r]):
                exec_mask = exec_mask & (elapsed_before[r] < local_end)
            attempt_records = tuple(
                AttemptTrace(
                    int(s_cand[r, j]),
                    hash_index_of(placement, int(s_cand[r, j])),
                    _CODE_OUTCOMES[int(s_out[r, j])],
                    float(cost[r, j]),
                )
                for j in range(k)
                if exec_mask[j]
            )
            launched = bool(branch[r])
            local_outcome = None
            if launched:
                if src_down:
                    local_outcome = OUTCOME_TIMEOUT
                elif bool(local_entry[r]):
                    local_outcome = OUTCOME_HIT
                else:
                    local_outcome = OUTCOME_MISSING
            ok = bool(success[r])
            traces.append(
                QueryTrace(
                    guid_value=batch.guids[gi].value,
                    source_asn=src,
                    issued_at=float(issued_at[r]),
                    k=len(placement),
                    placement=placement,
                    attempts=attempt_records,
                    local_launched=launched,
                    local_outcome=local_outcome,
                    local_end_ms=float(local_end) if launched else None,
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
        src: int,
        batch: GuidBatch,
        gidx: np.ndarray,
        cand: np.ndarray,
        model,
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
                            f"probe returned unknown outcome {raw!r}"
                        )
                    memo[(asn, gi)] = cached
                out[r, c] = cached
        return out


def _iter_source_groups(sources: np.ndarray):
    """Yield ``(source_asn, row_indices)`` per distinct source AS.

    Grouping is by sorted source value; within a group the original row
    order is preserved (stable sort), so per-row outcomes land back on
    the right queries.
    """
    order = np.argsort(sources, kind="stable")
    sorted_src = sources[order]
    if len(sorted_src) == 0:
        return
    boundaries = np.flatnonzero(
        np.r_[True, sorted_src[1:] != sorted_src[:-1]]
    )
    ends = np.r_[boundaries[1:], len(sorted_src)]
    for start, end in zip(boundaries, ends):
        yield int(sorted_src[start]), order[start:end]
