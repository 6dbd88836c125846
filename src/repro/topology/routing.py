"""Shortest-path routing over the AS graph.

DMap reaches a hosting AS in a single *overlay* hop, but that hop rides on
the underlying inter-domain routes; the simulation therefore needs
source→destination network latencies and hop counts for ~26k ASs.  This
module wraps :func:`scipy.sparse.csgraph.dijkstra` with per-source caching:
a workload touches the same source ASs repeatedly (origins are weighted by
end-node population), so one Dijkstra run per distinct source amortizes to
near-zero.

End-to-end one-way latency follows the paper's DIMES-derived model
(§IV-B.1): half the intra-AS latency contribution at each end plus the
inter-AS path::

    one_way(s, t) = intra(s) + path(s, t) + intra(t)   for s != t
    one_way(s, s) = intra(s)

and the round-trip query time is twice that (the reply retraces the path,
§IV-B).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..errors import RoutingError
from .graph import ASTopology

#: Sources per ``dijkstra(indices=...)`` call in :meth:`Router.prefetch_rows`
#: (clamped to the cache size, so a block never evicts its own rows).
ROW_BLOCK = 64


class Router:
    """Latency/hop oracle over a frozen :class:`ASTopology`.

    Parameters
    ----------
    topology:
        The AS graph.  The router snapshots its structure at construction;
        rebuild the router after mutating the topology.
    cache_size:
        Number of per-source distance rows kept (LRU).  A row is
        ``8 bytes × n`` — 26k ASs ≈ 0.2 MB — so thousands of rows fit
        comfortably.
    """

    def __init__(self, topology: ASTopology, cache_size: int = 4096) -> None:
        if cache_size < 1:
            raise RoutingError("cache_size must be >= 1")
        self.topology = topology
        self.cache_size = cache_size
        self.n = len(topology)
        rows, cols, weights = topology.edge_arrays()
        self._matrix = csr_matrix(
            (weights, (rows, cols)), shape=(self.n, self.n)
        )
        # Hop counts are *unit* weights, independent of the latency dtype:
        # an explicit small-int matrix keeps every shortest-hop distance an
        # exact integer (scipy widens to float64 internally, where counts
        # up to 2**53 are exact).
        self._hop_matrix = csr_matrix(
            (np.ones(len(weights), dtype=np.int8), (rows, cols)),
            shape=(self.n, self.n),
        )
        self._intra = topology.intra_latency_array()
        # Dense asn -> index translation for vectorized queries: ASNs are
        # small positive integers, so a flat lookup vector replaces the
        # per-element ``index_of`` dict probes on the hot path.
        asns = np.asarray(topology.asns(), dtype=np.int64)
        size = int(asns.max()) + 1 if asns.size else 1
        self._asn_table = np.full(size, -1, dtype=np.int64)
        if asns.size:
            self._asn_table[asns] = np.arange(self.n, dtype=np.int64)
        self._latency_rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._hop_rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self.dijkstra_runs = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Cached distance rows
    # ------------------------------------------------------------------
    def _row(
        self,
        cache: "OrderedDict[int, np.ndarray]",
        matrix: csr_matrix,
        src_index: int,
    ) -> np.ndarray:
        row = cache.get(src_index)
        if row is not None:
            cache.move_to_end(src_index)
            return row
        # float32 halves the cache footprint; at 26k ASs a row is ~100 KB,
        # so thousands of distinct sources stay resident.
        row = dijkstra(matrix, directed=False, indices=src_index).astype(np.float32)
        self._store(cache, src_index, row)
        return row

    def _store(
        self,
        cache: "OrderedDict[int, np.ndarray]",
        src_index: int,
        row: np.ndarray,
    ) -> None:
        self.dijkstra_runs += 1
        cache[src_index] = row
        if len(cache) > self.cache_size:
            cache.popitem(last=False)
            self.evictions += 1

    @property
    def row_block(self) -> int:
        """Most sources one :meth:`prefetch_rows` call accepts."""
        return min(ROW_BLOCK, self.cache_size)

    def prefetch_rows(self, src_asns: Iterable[int], hops: bool = False) -> None:
        """Put the latency (or ``hops``) rows of up to :attr:`row_block`
        sources into the LRU, computing the missing ones in one Dijkstra
        call.

        Rows are bit-identical to :meth:`latency_row` / :meth:`hop_row`
        computed one source at a time, and ``dijkstra_runs`` counts rows,
        not calls.  Rows already cached are marked recently used, so no
        row of the block is evicted before its caller reads it.
        """
        cache, matrix = (
            (self._hop_rows, self._hop_matrix)
            if hops
            else (self._latency_rows, self._matrix)
        )
        wanted = list(dict.fromkeys(self.topology.index_of(a) for a in src_asns))
        if len(wanted) > self.row_block:
            raise RoutingError(
                f"prefetch of {len(wanted)} sources exceeds the block of "
                f"{self.row_block}"
            )
        missing = []
        for idx in wanted:
            if idx in cache:
                cache.move_to_end(idx)
            else:
                missing.append(idx)
        if not missing:
            return
        block = dijkstra(matrix, directed=False, indices=missing).astype(np.float32)
        for idx, row in zip(missing, block):
            # Copy each row out, so an evicted row frees its memory even
            # while the rest of its block stays cached.
            self._store(cache, idx, row.copy())

    def latency_row(self, src_asn: int) -> np.ndarray:
        """Inter-AS path latency (ms) from ``src_asn`` to every AS, in
        dense-index order.  ``inf`` marks unreachable ASs."""
        idx = self.topology.index_of(src_asn)
        return self._row(self._latency_rows, self._matrix, idx)

    def hop_row(self, src_asn: int) -> np.ndarray:
        """AS-path hop counts from ``src_asn`` in dense-index order."""
        idx = self.topology.index_of(src_asn)
        return self._row(self._hop_rows, self._hop_matrix, idx)

    # ------------------------------------------------------------------
    # Scalar queries
    # ------------------------------------------------------------------
    def path_latency_ms(self, src_asn: int, dst_asn: int) -> float:
        """Inter-AS shortest-path latency (0 when src == dst)."""
        if src_asn == dst_asn:
            return 0.0
        value = float(self.latency_row(src_asn)[self.topology.index_of(dst_asn)])
        if not np.isfinite(value):
            raise RoutingError(f"AS {dst_asn} unreachable from AS {src_asn}")
        return value

    def hops(self, src_asn: int, dst_asn: int) -> int:
        """AS-path length in hops (0 when src == dst)."""
        if src_asn == dst_asn:
            return 0
        value = float(self.hop_row(src_asn)[self.topology.index_of(dst_asn)])
        if not np.isfinite(value):
            raise RoutingError(f"AS {dst_asn} unreachable from AS {src_asn}")
        return int(value)

    def one_way_ms(self, src_asn: int, dst_asn: int) -> float:
        """End-to-end one-way latency host-in-``src`` → server-in-``dst``."""
        src_idx = self.topology.index_of(src_asn)
        if src_asn == dst_asn:
            return float(self._intra[src_idx])
        dst_idx = self.topology.index_of(dst_asn)
        path = float(self.latency_row(src_asn)[dst_idx])
        if not np.isfinite(path):
            raise RoutingError(f"AS {dst_asn} unreachable from AS {src_asn}")
        return float(self._intra[src_idx]) + path + float(self._intra[dst_idx])

    def rtt_ms(self, src_asn: int, dst_asn: int) -> float:
        """Round-trip time of a query+response between the two ASs."""
        return 2.0 * self.one_way_ms(src_asn, dst_asn)

    # ------------------------------------------------------------------
    # Vectorized queries (replica selection over K candidates)
    # ------------------------------------------------------------------
    def indices_of(self, asns: np.ndarray) -> np.ndarray:
        """Dense indices of an ASN array (vectorized ``index_of``)."""
        arr = np.asarray(asns, dtype=np.int64)
        if arr.size and (
            arr.min() < 0 or arr.max() >= len(self._asn_table)
        ):
            raise RoutingError("unknown AS in destination array")
        idx = self._asn_table[arr]
        if arr.size and int(idx.min()) < 0:
            missing = arr[idx < 0].ravel()
            raise RoutingError(f"unknown AS {int(missing[0])}")
        return idx

    def one_way_to_many(self, src_asn: int, dst_asns: np.ndarray) -> np.ndarray:
        """One-way latencies from ``src_asn`` to an array of ASNs."""
        src_idx = self.topology.index_of(src_asn)
        row = self.latency_row(src_asn)
        dst_idx = self.indices_of(dst_asns)
        path = row[dst_idx]
        result = self._intra[src_idx] + path + self._intra[dst_idx]
        same = dst_idx == src_idx
        result[same] = self._intra[src_idx]
        return result

    @property
    def intra_array(self) -> np.ndarray:
        """Cached intra-AS latencies in dense-index order (read-only)."""
        return self._intra

    def rtt_to_many(
        self, src_asn: int, dst_asns: np.ndarray, strict: bool = True
    ) -> np.ndarray:
        """Round-trip times from ``src_asn`` to an array of ASNs.

        Bit-identical to looping :meth:`rtt_ms` over the array: the path
        term is widened to float64 before the same left-to-right latency
        sum, so the fastpath engine can assert exact equality against the
        scalar resolver.  Raises on unreachable destinations, like the
        scalar query; ``strict=False`` instead leaves ``inf`` in place for
        callers that only consume a reachable subset.
        """
        src_idx = self.topology.index_of(src_asn)
        dst_idx = self.indices_of(dst_asns)
        path = self.latency_row(src_asn)[dst_idx].astype(np.float64)
        one_way = self._intra[src_idx] + path + self._intra[dst_idx]
        same = dst_idx == src_idx
        one_way[same] = self._intra[src_idx]
        if strict and not np.all(np.isfinite(one_way)):
            bad = np.asarray(dst_asns, dtype=np.int64)[~np.isfinite(one_way)]
            raise RoutingError(
                f"AS {int(bad.ravel()[0])} unreachable from AS {src_asn}"
            )
        return 2.0 * one_way

    def closest_of(
        self, src_asn: int, dst_asns: np.ndarray, by: str = "latency"
    ) -> Tuple[int, float]:
        """Replica selection: the destination minimizing latency or hops.

        ``by="latency"`` models a querying node with response-time
        estimates; ``by="hops"`` models the least-hop-count fallback the
        paper notes is available from BGP today and "leads to similar
        results albeit with marginally increased latencies" (§IV-B.2a).

        Returns ``(chosen_asn, one_way_latency_ms_to_it)``.
        """
        dst = np.asarray(dst_asns, dtype=np.int64)
        if dst.size == 0:
            raise RoutingError("closest_of needs at least one destination")
        if by == "latency":
            lat = self.one_way_to_many(src_asn, dst)
            pick = int(np.argmin(lat))
            return int(dst[pick]), float(lat[pick])
        if by == "hops":
            row = self.hop_row(src_asn)
            idx = self.indices_of(dst)
            hops = row[idx].copy()
            hops[idx == self.topology.index_of(src_asn)] = 0
            pick = int(np.argmin(hops))
            chosen = int(dst[pick])
            return chosen, self.one_way_ms(src_asn, chosen)
        raise RoutingError(f"unknown selection criterion {by!r}")

    def cache_stats(self) -> Dict[str, int]:
        """Diagnostics: cached rows, rows computed and rows evicted."""
        return {
            "latency_rows": len(self._latency_rows),
            "hop_rows": len(self._hop_rows),
            "dijkstra_runs": self.dijkstra_runs,
            "evictions": self.evictions,
        }
