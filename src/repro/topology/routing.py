"""Shortest-path routing over the AS graph.

DMap reaches a hosting AS in a single *overlay* hop, but that hop rides on
the underlying inter-domain routes; the simulation therefore needs
source→destination network latencies and hop counts for ~26k ASs.  This
module wraps :func:`scipy.sparse.csgraph.dijkstra` two ways:

* per-source rows behind an LRU (:meth:`Router.latency_row`), for the
  scalar queries of the resolver and the simulators: a workload touches
  the same source ASs repeatedly (origins are weighted by end-node
  population), so one Dijkstra run per distinct source amortizes to
  near-zero;
* one batch call for many (source, destination) pairs
  (:meth:`Router.pair_paths`), for the fastpath engine.  It keeps no
  rows: it runs Dijkstra only for a planned set of sources, derives the
  pairs of an independent set of the others from their neighbours' rows
  (``d(s, x) = min_n w(s, n) + d(n, x)``), and accepts a derived value
  only when its float32 rounding is certified equal to Dijkstra's.
  scipy's Dijkstra holds the GIL, so the planned rows are spread over
  forked worker processes, each filling its own lane of a shared array
  that the caller min-merges.

Every consumer reads paths as float32, and both ways return the same
float32 bits for the same pair.

End-to-end one-way latency follows the paper's DIMES-derived model
(§IV-B.1): half the intra-AS latency contribution at each end plus the
inter-AS path::

    one_way(s, t) = intra(s) + path(s, t) + intra(t)   for s != t
    one_way(s, s) = intra(s)

and the round-trip query time is twice that (the reply retraces the path,
§IV-B).  :meth:`Router.one_way_costs` is the scalar form of this rule;
the fastpath engine's ``_prepare`` is the bit-equal vector form.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..errors import RoutingError, TopologyError
from ..workers import run_forked, shared_array, worker_count
from .graph import ASTopology

#: Sources per ``dijkstra(indices=...)`` call of :meth:`Router.pair_paths`.
ROW_BLOCK = 64

#: Request rows per key lookup when :meth:`Router.pair_paths` scatters
#: pair values back to its cells (bounds the index temporaries).
_ROW_CHUNK = 1 << 14

#: Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0 ** -53


def certified(values: np.ndarray, w_min: float, n: int) -> np.ndarray:
    """Whether each neighbour-derived path length rounds to the float32
    that Dijkstra's own value for the pair rounds to.

    A derived value ``E = min_n w(s, n) + d(n, x)`` and Dijkstra's value
    ``V`` are float64 sums of ``L`` link weights in different orders, so
    each is within a relative ``γ_L ≈ L·2⁻⁵³`` of the true length.  Any
    path of length about ``E`` has at most ``E / w_min`` links, so
    ``L ≤ min(E / w_min + 2, n)``.  With ``ε = 2(L + 2)·2⁻⁵³`` (both
    errors, the products' own rounding and slack), ``V`` lies in
    ``[E(1 − ε), E(1 + ε)]``; float32 rounding is monotone, so when both
    ends round to the same float32, so does ``V``.  ``inf`` (unreachable)
    is certified; it is exact.
    """
    values = np.asarray(values, dtype=np.float64)
    links = np.full(values.shape, float(n))
    if w_min > 0:
        links = np.minimum(np.floor(values / w_min) + 2, links)
    eps = 2 * (links + 2) * _UNIT_ROUNDOFF
    low = (values * (1 - eps)).astype(np.float32)
    high = (values * (1 + eps)).astype(np.float32)
    return low == high


class Router:
    """Latency/hop oracle over a frozen :class:`ASTopology`.

    Parameters
    ----------
    topology:
        The AS graph.  The router snapshots its structure at construction;
        rebuild the router after mutating the topology.
    cache_size:
        Number of per-source distance rows kept (LRU).  A row is float32,
        ``4 bytes × n`` — 26k ASs ≈ 0.1 MB — so thousands of rows fit
        comfortably.
    """

    def __init__(self, topology: ASTopology, cache_size: int = 4096) -> None:
        if cache_size < 1:
            raise RoutingError("cache_size must be >= 1")
        self.topology = topology
        self.cache_size = cache_size
        self.n = len(topology)
        # The canonical CSR the topology's load already sorted, and its
        # ASN map: nothing is sorted or mapped again here.  The map's dict
        # form is built on the first scalar query, so an engine that asks
        # only vector queries (the fastpath) never builds it.
        indptr, indices, weights = topology.csr_arrays()
        self._asns = topology.asn_index()
        self._matrix = csr_matrix((weights, indices, indptr), shape=(self.n, self.n))
        # Hop counts are *unit* weights, independent of the latency dtype:
        # an explicit small-int matrix keeps every shortest-hop distance an
        # exact integer (scipy widens to float64 internally, where counts
        # up to 2**53 are exact).  Same indptr and indices as the latency CSR.
        self._hop_matrix = csr_matrix(
            (
                np.ones(len(weights), dtype=np.int8),
                self._matrix.indices,
                self._matrix.indptr,
            ),
            shape=(self.n, self.n),
        )
        self._intra = topology.intra_latency_array()
        # A plain Python copy for the scalar queries (cheaper per element).
        self._intra_ms: List[float] = self._intra.tolist()
        self._latency_rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._hop_rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self.dijkstra_runs = 0
        self.evictions = 0
        self.derived_rows = 0
        self.fallback_rows = 0

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
        # so thousands of distinct sources stay resident.  The CSR holds
        # both directions of every link, so a directed run gives the
        # undirected distances, bit for bit, and skips the transpose.
        row = dijkstra(matrix, directed=True, indices=src_index).astype(np.float32)
        self.dijkstra_runs += 1
        cache[src_index] = row
        if len(cache) > self.cache_size:
            cache.popitem(last=False)
            self.evictions += 1
        return row

    # ------------------------------------------------------------------
    # Pair distances (no rows kept)
    # ------------------------------------------------------------------
    def plan_rows(self, sources: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(exact, derived)`` dense indices for the distinct ``sources``.

        ``derived`` is an independent set of the sources, picked greedily
        lowest degree first; :meth:`pair_paths` reads their pairs off their
        neighbours' rows.  ``exact`` are the rows Dijkstra computes: the
        other sources and every neighbour of a derived one.  A source is
        derived only when at most one of its neighbours would be a new
        exact row, so ``len(exact) <= len(set(sources))`` always holds.
        """
        is_source = np.zeros(self.n, dtype=bool)
        is_source[np.asarray(sources, dtype=np.int64)] = True
        wanted = np.flatnonzero(is_source)
        indptr, indices = self._matrix.indptr, self._matrix.indices
        degree = np.diff(indptr)
        derived = np.zeros(self.n, dtype=bool)
        exact_nbr = np.zeros(self.n, dtype=bool)
        for s in wanted[np.argsort(degree[wanted], kind="stable")].tolist():
            nbrs = indices[indptr[s] : indptr[s + 1]]
            if exact_nbr[s] or not len(nbrs):
                continue
            if np.count_nonzero(~is_source[nbrs] & ~exact_nbr[nbrs]) > 1:
                continue
            derived[s] = True
            exact_nbr[nbrs] = True
        exact_nbr[wanted[~derived[wanted]]] = True
        return np.flatnonzero(exact_nbr), np.flatnonzero(derived)

    def pair_paths(
        self,
        src_idx: np.ndarray,
        dst_idx: np.ndarray,
        hops: bool = False,
        n_jobs: int = 1,
    ) -> np.ndarray:
        """Inter-AS path latencies (or ``hops``) as float32, one per cell
        of ``dst_idx``; row ``i`` of ``dst_idx`` holds destinations of
        source ``src_idx[i]`` (dense indices).

        Every cell is bit-identical to ``latency_row(s)[x]`` /
        ``hop_row(s)[x]`` (``0`` when ``x == s``, ``inf`` when
        unreachable), but no row is kept and the LRU is untouched.
        Dijkstra runs for :meth:`plan_rows`' exact set, :data:`ROW_BLOCK`
        sources per call.  Each block row of ``n`` fills its own source's
        pairs and lowers, by running minimum, every pair ``(s, x)`` of
        each derived neighbour ``s`` to ``w(s, n) + row_n[x]``.  A derived
        value is kept when :func:`certified`; a derived source with any
        uncertain pair gets one exact row instead (a fallback row).

        ``n_jobs`` workers share the blocks (see :meth:`_stream`); the
        cells are the same bits for every worker count.
        """
        return self._pair_streams(src_idx, dst_idx, (hops,), n_jobs)[0]

    def pair_paths_and_hops(
        self, src_idx: np.ndarray, dst_idx: np.ndarray, n_jobs: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`pair_paths` without and with ``hops`` from one plan of
        the pairs; each metric runs its own Dijkstra rows."""
        latency, hop = self._pair_streams(src_idx, dst_idx, (False, True), n_jobs)
        return latency, hop

    def _pair_streams(
        self,
        src_idx: np.ndarray,
        dst_idx: np.ndarray,
        metrics: Tuple[bool, ...],
        n_jobs: int,
    ) -> List[np.ndarray]:
        """:meth:`pair_paths` of each metric (``True``: hops), one plan."""
        src = np.asarray(src_idx, dtype=np.int64)
        dst = np.asarray(dst_idx, dtype=np.int64)
        if src.ndim != 1 or dst.shape[:1] != src.shape:
            raise RoutingError("pair_paths needs one source per row of dst_idx")
        if not len(src):
            return [np.zeros(dst.shape, dtype=np.float32) for _ in metrics]
        # One key ``s * n + x`` per cell; the distinct keys are the pairs,
        # sorted by source, so source s owns pairs[bounds[s]:bounds[s + 1]].
        grid = dst.reshape(len(src), -1)
        pairs = _distinct((src[:, None] * self.n + grid).ravel())
        ps, px = np.divmod(pairs, self.n)
        bounds = np.searchsorted(ps, np.arange(self.n + 1))
        itself = ps == px
        exact, derived = self.plan_rows(ps[~itself])
        is_derived = np.zeros(self.n, dtype=bool)
        is_derived[derived] = True
        via = np.flatnonzero(is_derived[ps] & ~itself)
        cells = []
        for hops in metrics:
            matrix = self._hop_matrix if hops else self._matrix
            dist = np.full(len(pairs), np.inf)
            self._stream(matrix, exact, bounds, px, dist, is_derived, n_jobs)
            w_min = float(matrix.data.min()) if matrix.nnz else 0.0
            unsure = via[~certified(dist[via], w_min, self.n)]
            fallback = _distinct(ps[unsure])
            # A fallback row replaces its source's derived values, which the
            # merge's minimum would otherwise keep where they round lower.
            dist[_ranges(bounds[fallback], bounds[fallback + 1])[1]] = np.inf
            self._stream(matrix, fallback, bounds, px, dist, None, n_jobs)
            dist[itself] = 0.0
            self.derived_rows += len(derived)
            self.fallback_rows += len(fallback)
            paths = dist.astype(np.float32)
            out = np.empty(grid.size, dtype=np.float32)
            width = grid.shape[1]
            for first in range(0, len(src), _ROW_CHUNK):
                rows = slice(first, first + _ROW_CHUNK)
                keys = (src[rows, None] * self.n + grid[rows]).ravel()
                # Searched in ascending order, the keys walk ``pairs``
                # once instead of jumping around it.
                order = np.argsort(keys)
                chunk = out[first * width : first * width + len(keys)]
                chunk[order] = paths[np.searchsorted(pairs, keys[order])]
            cells.append(out.reshape(dst.shape))
        return cells

    def _stream(
        self,
        matrix: csr_matrix,
        nodes: np.ndarray,
        bounds: np.ndarray,
        px: np.ndarray,
        dist: np.ndarray,
        feed: Optional[np.ndarray],
        n_jobs: int,
    ) -> None:
        """Compute the Dijkstra rows of ``nodes`` into ``dist`` (see
        :func:`_fill`), dealing their :data:`ROW_BLOCK` blocks round-robin
        to ``n_jobs`` workers (:func:`repro.workers.run_forked`).

        Each worker fills its own lane of one shared ``(workers,
        len(dist))`` array, every lane starting as a copy of ``dist``, and
        the lanes are merged by ``np.minimum``.  A source's own pairs are
        written by exactly one worker and stay ``inf`` in the other lanes,
        and a running minimum over a split feed is the minimum of the
        parts, so the merge is the serial stream's bits whatever the
        worker count.  One block, or no ``fork``, streams in-process.
        """
        blocks = [nodes[i : i + ROW_BLOCK] for i in range(0, len(nodes), ROW_BLOCK)]
        self.dijkstra_runs += len(nodes)
        workers = worker_count(n_jobs, len(blocks))
        if workers < 2:
            _fill(matrix, blocks, bounds, px, dist, feed)
            return
        lanes = shared_array((workers, len(dist)), np.float64)
        lanes[:] = dist
        run_forked(
            lambda w: _fill(matrix, blocks[w::workers], bounds, px, lanes[w], feed),
            workers,
            "Dijkstra",
            RoutingError,
        )
        np.minimum.reduce(lanes, axis=0, out=dist)

    def latency_row(self, src_asn: int) -> np.ndarray:
        """Inter-AS path latency (ms) from ``src_asn`` to every AS, in
        dense-index order.  ``inf`` marks unreachable ASs."""
        return self._row(self._latency_rows, self._matrix, self._dense(src_asn))

    def hop_row(self, src_asn: int) -> np.ndarray:
        """AS-path hop counts from ``src_asn`` in dense-index order."""
        return self._row(self._hop_rows, self._hop_matrix, self._dense(src_asn))

    # ------------------------------------------------------------------
    # Scalar queries
    # ------------------------------------------------------------------
    def _dense(self, asn: int) -> int:
        """Dense index of ``asn``; :class:`TopologyError` when the router
        does not know it."""
        try:
            return self._asns.lookup[asn]
        except KeyError as exc:
            raise _unknown(exc) from exc

    def intra_ms(self, asn: int) -> float:
        """The one-way rule's same-AS cost: ``one_way(s, s) = intra(s)``."""
        try:
            return self._intra_ms[self._asns.lookup[asn]]
        except KeyError as exc:
            raise _unknown(exc) from exc

    @staticmethod
    def reached(src_asn: int, dst_asn: int, cost: float) -> float:
        """``cost`` from ``src_asn`` to ``dst_asn``, or
        :class:`RoutingError` when it is not finite (unreachable)."""
        if not math.isfinite(cost):
            raise RoutingError(f"AS {dst_asn} unreachable from AS {src_asn}")
        return cost

    def path_latency_ms(self, src_asn: int, dst_asn: int) -> float:
        """Inter-AS shortest-path latency (0 when src == dst)."""
        if src_asn == dst_asn:
            return 0.0
        row = self.latency_row(src_asn)
        return self.reached(src_asn, dst_asn, row.item(self._dense(dst_asn)))

    def hops(self, src_asn: int, dst_asn: int) -> int:
        """AS-path length in hops (0 when src == dst)."""
        if src_asn == dst_asn:
            return 0
        row = self.hop_row(src_asn)
        return int(self.reached(src_asn, dst_asn, row.item(self._dense(dst_asn))))

    def one_way_costs(self, src_asn: int, dst_asns: Iterable[int]) -> List[float]:
        """End-to-end one-way latencies (ms) host-in-``src_asn`` →
        server-in-each-of-``dst_asns``, ``inf`` where unreachable.

        The scalar form of the module's one-way rule: the float32 path
        from the source's cached row, read once and only when some
        destination is another AS, is widened to a Python float and
        summed left to right with the float64 intra terms.
        """
        intra, index = self._intra_ms, self._asns.lookup
        row = None
        costs: List[float] = []
        try:
            s = index[src_asn]
            own = intra[s]
            for asn in dst_asns:
                d = index[asn]
                if d == s:
                    costs.append(own)
                    continue
                if row is None:
                    row = self.latency_row(src_asn)
                costs.append(own + row.item(d) + intra[d])
        except KeyError as exc:
            raise _unknown(exc) from exc
        return costs

    def hop_costs(self, src_asn: int, dst_asns: Iterable[int]) -> List[float]:
        """AS-path hop counts from ``src_asn`` to each of ``dst_asns`` as
        floats (``0.0`` to itself, ``inf`` where unreachable), from one
        read of the source's cached hop row."""
        index = self._asns.lookup
        s = self._dense(src_asn)
        row = self.hop_row(src_asn)
        try:
            return [0.0 if d == s else row.item(d) for d in map(index.__getitem__, dst_asns)]
        except KeyError as exc:
            raise _unknown(exc) from exc

    def one_way_ms(self, src_asn: int, dst_asn: int) -> float:
        """:meth:`one_way_costs` for one destination; raises
        :class:`RoutingError` when ``dst`` is unreachable."""
        (cost,) = self.one_way_costs(src_asn, (dst_asn,))
        return self.reached(src_asn, dst_asn, cost)

    def rtt_ms(self, src_asn: int, dst_asn: int) -> float:
        """Round-trip time of a query+response between the two ASs."""
        return 2.0 * self.one_way_ms(src_asn, dst_asn)

    def closest_of(
        self, src_asn: int, dst_asns: Sequence[int]
    ) -> Tuple[int, float]:
        """The destination with the least one-way latency (the first one
        on a tie): a querying node with response-time estimates picks a
        donor or a root this way.  Hop-count choice is the
        :class:`~repro.core.replication.ReplicaSelector` policy's job.

        Returns ``(chosen_asn, one_way_latency_ms_to_it)``.
        """
        dst = list(dst_asns)
        if not dst:
            raise RoutingError("closest_of needs at least one destination")
        costs = self.one_way_costs(src_asn, dst)
        pick = min(range(len(dst)), key=costs.__getitem__)
        return int(dst[pick]), costs[pick]

    # ------------------------------------------------------------------
    # Vectorized queries (the fastpath's path cells)
    # ------------------------------------------------------------------
    def indices_of(self, asns: np.ndarray) -> np.ndarray:
        """Dense indices of an ASN array (vectorized ``asn_index().lookup``)."""
        arr = np.asarray(asns, dtype=np.int64)
        idx = self._asns.dense_of(arr)
        if arr.size and int(idx.min()) < 0:
            missing = arr[idx < 0].ravel()
            raise RoutingError(f"unknown AS {int(missing[0])}")
        return idx

    @property
    def intra_array(self) -> np.ndarray:
        """Cached intra-AS latencies in dense-index order (read-only)."""
        return self._intra

    def cache_stats(self) -> Dict[str, int]:
        """Diagnostics: cached rows, Dijkstra rows computed, rows evicted,
        and the sources :meth:`pair_paths` planned as derived, of which
        ``fallback_rows`` needed an exact row after all."""
        return {
            "latency_rows": len(self._latency_rows),
            "hop_rows": len(self._hop_rows),
            "dijkstra_runs": self.dijkstra_runs,
            "evictions": self.evictions,
            "derived_rows": self.derived_rows,
            "fallback_rows": self.fallback_rows,
        }


def _unknown(missing: KeyError) -> TopologyError:
    """The error for an ASN a router's map does not hold."""
    return TopologyError(f"unknown AS {missing.args[0]}")


def _fill(
    matrix: csr_matrix,
    blocks: List[np.ndarray],
    bounds: np.ndarray,
    px: np.ndarray,
    dist: np.ndarray,
    feed: Optional[np.ndarray],
) -> None:
    """Run Dijkstra for each block of sources and drop the block once
    read.

    Each row writes its own source's pairs of ``dist`` (source ``s`` owns
    ``bounds[s]:bounds[s + 1]``, with hosts ``px``).  With a ``feed``
    mask, the row of ``n`` also lowers every pair ``(s, x)`` of each
    neighbour ``s`` in ``feed`` to ``w(s, n) + row_n[x]`` when that is
    smaller.
    """
    indptr, indices = matrix.indptr, matrix.indices
    for block in blocks:
        rows = dijkstra(matrix, directed=True, indices=block)
        at, cells = _ranges(bounds[block], bounds[block + 1])
        dist[cells] = rows[at, px[cells]]
        if feed is None:
            continue
        # The block's links into fed sources, then each such link
        # expanded to every pair of the source at its far end.
        at, links = _ranges(indptr[block], indptr[block + 1])
        fed = feed[indices[links]]
        at, links = at[fed], links[fed]
        nbr = indices[links]
        link, cells = _ranges(bounds[nbr], bounds[nbr + 1])
        np.minimum.at(
            dist, cells, matrix.data[links[link]] + rows[at[link], px[cells]]
        )


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values`` in ascending order, sorting ``values`` in
    place.  Bare ``np.unique`` takes a hash pass over an integer array
    since numpy 2.3, which costs an order of magnitude more than this
    sort."""
    values.sort()
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _ranges(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, index)``: every index of the ranges ``lo[i]:hi[i]``,
    concatenated, and the ``i`` each came from."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    starts = np.cumsum(counts) - counts
    index = np.arange(counts.sum()) + np.repeat(lo - starts, counts)
    return owner, index
