"""AS-level Internet topology.

The paper's simulation network is the DIMES AS graph: 26,424 ASs and
90,267 inter-AS links, with measured inter-AS link latencies, intra-AS
latencies, and per-AS end-node counts (§IV-B.1).  :class:`ASTopology`
holds exactly those attributes, as the flat arrays of :data:`LAYOUT`;
:mod:`repro.topology.generator` synthesizes DIMES-like instances and the
substrate store loads stored ones.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ..errors import TopologyError


class ASTier(enum.IntEnum):
    """Coarse role of an AS in the Internet hierarchy."""

    TIER1 = 1  # default-free core (full-mesh peering)
    TRANSIT = 2  # regional transit providers
    STUB = 3  # edge / access networks


#: The arrays of :meth:`ASTopology.adjacency_arrays` and their dtypes.
LAYOUT = {
    "asn": np.int64,
    "tier": np.int64,
    "intra_ms": np.float64,
    "endnodes": np.int64,
    "pos_x": np.float64,
    "pos_y": np.float64,
    "adj_start": np.int64,
    "adj_asn": np.int64,
    "adj_latency_ms": np.float64,
}

_PER_AS = ("asn", "tier", "intra_ms", "endnodes", "pos_x", "pos_y")

#: :class:`AsnIndex` keeps a flat ASN -> dense table while the largest ASN
#: stays below ``_TABLE_PER_AS`` entries per AS plus ``_TABLE_SLACK``:
#: every 2-byte numbering does, and the table stays a small multiple of
#: the graph.  Sparser numberings (4-byte ASNs) are searched instead.
_TABLE_PER_AS = 16
_TABLE_SLACK = 1 << 16


class AsnIndex:
    """The ASN -> dense-index map of a graph, shared by the topology and
    its router.

    ``asns`` lists the ASNs ascending, so position ``i`` holds the ASN of
    dense index ``i``.  :meth:`dense_of` maps an array of ASNs at once:
    through a flat table indexed by ASN when the ASNs are dense enough
    (see :data:`_TABLE_PER_AS`), else by binary search over ``asns``;
    memory stays linear in the number of ASs either way.  :attr:`lookup`
    is the same map as a dict, for scalar queries.
    """

    def __init__(self, asns: np.ndarray) -> None:
        dense = np.sort(asns)
        twice = np.flatnonzero(dense[1:] == dense[:-1])
        if twice.size:
            raise TopologyError(f"AS {dense[twice[0]]} is listed twice")
        dense.flags.writeable = False
        self.asns = dense
        self._table: Optional[np.ndarray] = None
        n = len(dense)
        if n and dense[0] >= 0 and dense[-1] < _TABLE_PER_AS * n + _TABLE_SLACK:
            # One entry per ASN up to the largest, then a -1 sentinel that
            # every ASN outside [0, largest] is clipped onto.
            table = np.full(int(dense[-1]) + 2, -1, dtype=np.int64)
            table[dense] = np.arange(n, dtype=np.int64)
            self._table = table

    def dense_of(self, asns: np.ndarray) -> np.ndarray:
        """Dense index of each of ``asns`` (an int64 array of any shape),
        ``-1`` where the ASN is not listed."""
        table = self._table
        if table is not None:
            if asns.size and (asns.min() < 0 or asns.max() >= len(table)):
                asns = np.clip(asns, -1, len(table) - 1)
            return table[asns]
        n = len(self.asns)
        if not n:
            return np.full(np.shape(asns), -1, dtype=np.int64)
        at = np.searchsorted(self.asns, asns)
        return np.where(self.asns[np.minimum(at, n - 1)] == asns, at, -1)

    @cached_property
    def lookup(self) -> Dict[int, int]:
        """``asn -> dense index``, built on the first read."""
        return dict(zip(self.asns.tolist(), range(len(self.asns))))


def adjacency_layout(
    attributes: Mapping[str, Sequence], adjacency: Sequence[Mapping[int, float]]
) -> Dict[str, np.ndarray]:
    """The :data:`LAYOUT` of a graph given per AS, in one order: its
    ``attributes`` (``asn``, ``tier``, ``intra_ms``, ``endnodes``,
    ``pos_x``, ``pos_y``) and its ``neighbour -> latency`` dict."""
    arrays = {name: np.asarray(attributes[name], dtype=LAYOUT[name]) for name in _PER_AS}
    degrees = [len(nbrs) for nbrs in adjacency]
    arrays["adj_start"] = np.concatenate(([0], np.cumsum(degrees, dtype=np.int64)))
    arrays["adj_asn"] = np.asarray(
        [b for nbrs in adjacency for b in nbrs], dtype=np.int64
    )
    arrays["adj_latency_ms"] = np.asarray(
        [lat for nbrs in adjacency for lat in nbrs.values()], dtype=np.float64
    )
    return arrays


class ASTopology:
    """AS graph with latency and population attributes; read-only.

    The graph is the flat arrays of :data:`LAYOUT` (see
    :meth:`adjacency_arrays`), the layout the substrate store keeps on
    disk.  ASs are keyed by ASN; dense indices ``[0, n)`` number them in
    ascending ASN order, so routing can hand the graph to scipy as a CSR
    matrix.  Reads by ASN follow the stored order of the ASs and of each
    AS's neighbours; dense reads follow the ascending one.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Keep ``arrays`` (as read-only views, not copies), so the graph
        equals the one they were taken from down to the order of
        :meth:`neighbors`.  Raises :class:`TopologyError` unless they
        describe a graph: each AS listed once with valid attributes, and
        each link listed once at both ends, between two listed ASs, with
        one positive latency."""
        layout: Dict[str, np.ndarray] = {}
        for name, dtype in LAYOUT.items():
            if name not in arrays:
                raise TopologyError(f"topology arrays lack {name!r}")
            view = np.asarray(arrays[name], dtype=dtype).view()
            view.flags.writeable = False
            if view.ndim != 1:
                raise TopologyError(f"topology array {name!r} is not flat")
            layout[name] = view
        self._arrays = layout
        self._asn = asn = layout["asn"]
        self._intra = intra = layout["intra_ms"]
        self._endnodes = endnodes = layout["endnodes"]
        self._start = start = layout["adj_start"]
        self._adj_asn = adj_asn = layout["adj_asn"]
        adj_ms = layout["adj_latency_ms"]
        self._slots: Optional[Dict[int, int]] = None

        n = len(asn)
        if any(len(layout[name]) != n for name in _PER_AS) or len(start) != n + 1:
            raise TopologyError("topology arrays disagree on the number of ASs")
        degree = np.diff(start)
        if start[0] != 0 or (degree < 0).any() or not (
            start[-1] == len(adj_asn) == len(adj_ms)
        ):
            raise TopologyError("adj_start does not delimit the adjacency arrays")
        self._index = index = AsnIndex(asn)
        dense = index.asns
        if not (intra >= 0).all():
            raise TopologyError("intra-AS latencies must be >= 0")
        if (endnodes < 0).any():
            raise TopologyError("end-node counts must be >= 0")
        if not np.isin(layout["tier"], [int(t) for t in ASTier]).all():
            raise TopologyError("unknown AS tier")
        rank = index.dense_of(asn)
        cols = index.dense_of(adj_asn)
        stray = np.flatnonzero(cols < 0)
        if stray.size:
            raise TopologyError(f"neighbour AS {adj_asn[stray[0]]} is not listed")
        rows = np.repeat(rank, degree)

        def bad_arc(arc: int, why: str) -> TopologyError:
            a, b = dense[rows[arc]], dense[cols[arc]]
            return TopologyError(f"link {a}-{b} {why}")

        loop = np.flatnonzero(rows == cols)
        if loop.size:
            raise bad_arc(loop[0], "is a self-loop")
        bad = np.flatnonzero(~(adj_ms > 0))
        if bad.size:
            raise bad_arc(bad[0], "must have positive latency")
        # Sorted by (owner, neighbour), the arcs are the graph's canonical
        # CSR matrix, and must repeat nowhere.  Its transpose (scipy's
        # linear counting pass, carrying each arc's position along) lists
        # them by (neighbour, owner): the graph is symmetric when both have
        # one structure, and then the arc at each position is the reverse
        # of its partner's, so their latencies must agree too.
        key = rows * n + cols
        order = np.argsort(key)
        sorted_key = key[order]
        twice = np.flatnonzero(sorted_key[1:] == sorted_key[:-1])
        if twice.size:
            raise bad_arc(order[twice[0]], "is listed twice at one end")
        row_degree = np.empty(n, dtype=np.int64)
        row_degree[rank] = degree
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_degree, out=indptr[1:])
        # scipy narrows the index arrays to the smallest dtype that holds
        # them; the router's matrices then share these without a copy.
        matrix = csr_matrix((np.arange(len(order)), cols[order], indptr), shape=(n, n))
        indptr, indices = matrix.indptr, matrix.indices
        transposed = matrix.tocsc()
        if not (
            np.array_equal(transposed.indptr, indptr)
            and np.array_equal(transposed.indices, indices)
        ):
            one_ended = np.flatnonzero(~np.isin(cols * n + rows, key))
            raise bad_arc(one_ended[0], "is listed at one end only")
        weights = adj_ms[order]
        differ = np.flatnonzero(weights != weights[transposed.data])
        if differ.size:
            raise bad_arc(order[differ[0]], "has different latencies at its ends")
        self._rank = rank
        self._csr = (indptr, indices, weights)
        for derived in (rank, *self._csr):
            derived.flags.writeable = False

    def _slot(self, asn: int) -> int:
        """Stored position of ``asn``; :class:`TopologyError` if absent.
        The ``asn -> position`` dict is built on the first call."""
        if self._slots is None:
            self._slots = dict(zip(self._asn.tolist(), range(len(self._asn))))
        try:
            return self._slots[asn]
        except KeyError as exc:
            raise TopologyError(f"unknown AS {asn}") from exc

    def _dense_order(self, values: np.ndarray) -> np.ndarray:
        """Per-AS ``values`` (stored order) as float64 in dense order."""
        out = np.empty(len(values), dtype=np.float64)
        out[self._rank] = values
        return out

    # ------------------------------------------------------------------
    # Queries by ASN
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._asn)

    def asns(self) -> List[int]:
        """All AS numbers, ascending."""
        return self._index.asns.tolist()

    def neighbors(self, asn: int) -> List[int]:
        """Adjacent AS numbers, in stored order."""
        p = self._slot(asn)
        return self._adj_asn[self._start[p] : self._start[p + 1]].tolist()

    def degree(self, asn: int) -> int:
        """Number of inter-AS links at ``asn``."""
        p = self._slot(asn)
        return int(self._start[p + 1] - self._start[p])

    def n_links(self) -> int:
        """Number of undirected links."""
        return len(self._adj_asn) // 2

    def intra_latency(self, asn: int) -> float:
        """One-way intra-AS latency of ``asn``."""
        return float(self._intra[self._slot(asn)])

    # ------------------------------------------------------------------
    # Dense indexing / export
    # ------------------------------------------------------------------
    def asn_index(self) -> AsnIndex:
        """The graph's ASN -> dense-index map (see :class:`AsnIndex`)."""
        return self._index

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, weights)``: the latency graph over dense
        indices as a canonical CSR matrix (rows ascending, columns
        ascending within a row), as the constructor's symmetry check
        sorted it.  The arrays are read-only; the index arrays have the
        dtype scipy picks for them (int32 unless the graph needs int64)."""
        return self._csr

    def adjacency_arrays(self) -> Dict[str, np.ndarray]:
        """The whole graph as flat arrays (fresh copies), ASs and each AS's
        neighbours in stored order: the constructor's input.

        Per AS ``i``: ``asn``, ``tier``, ``intra_ms``, ``endnodes``,
        ``pos_x``, ``pos_y``; its links are entries
        ``adj_start[i]:adj_start[i + 1]`` of ``adj_asn`` (the neighbour)
        and ``adj_latency_ms``.  Every link appears at both ends.
        """
        return {name: array.copy() for name, array in self._arrays.items()}

    def intra_latency_array(self) -> np.ndarray:
        """Intra-AS latencies in dense-index order."""
        return self._dense_order(self._intra)

    def endnode_array(self) -> np.ndarray:
        """End-node counts in dense-index order."""
        return self._dense_order(self._endnodes)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        The simulation requires a connected, non-empty graph: every AS
        must be able to reach every mapping host.
        """
        n = len(self._asn)
        if not n:
            raise TopologyError("topology is empty")
        indptr, indices, _ = self._csr
        graph = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
        _, labels = connected_components(graph, directed=False)
        missing = int(np.count_nonzero(labels != labels[self._rank[0]]))
        if missing:
            raise TopologyError(f"topology is disconnected ({missing} ASs unreachable)")
