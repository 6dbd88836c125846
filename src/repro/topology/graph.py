"""AS-level Internet topology.

The paper's simulation network is the DIMES AS graph: 26,424 ASs and
90,267 inter-AS links, with measured inter-AS link latencies, intra-AS
latencies, and per-AS end-node counts (§IV-B.1).  :class:`ASTopology`
holds exactly those attributes; :mod:`repro.topology.generator`
synthesizes DIMES-like instances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ..errors import TopologyError


class ASTier(enum.IntEnum):
    """Coarse role of an AS in the Internet hierarchy."""

    TIER1 = 1  # default-free core (full-mesh peering)
    TRANSIT = 2  # regional transit providers
    STUB = 3  # edge / access networks


@dataclass
class ASInfo:
    """Per-AS attributes used by the simulation.

    Attributes
    ----------
    asn:
        Autonomous-system number.
    tier:
        Hierarchy role.
    intra_latency_ms:
        One-way latency to cross the AS internally (DIMES "intra-AS
        latency"; median 3.5 ms in the paper's dataset, heavy-tailed).
    endnodes:
        Number of end hosts attached — weights the origin of GUID inserts
        and queries (§IV-B.1).
    position:
        (x, y) kilometres on a planar geographic embedding; the latency
        model derives link propagation delay from it.
    """

    asn: int
    tier: ASTier = ASTier.STUB
    intra_latency_ms: float = 3.5
    endnodes: int = 1
    position: Tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class Link:
    """An undirected inter-AS adjacency with a one-way latency."""

    a: int
    b: int
    latency_ms: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-loop on AS {self.a}")
        if not self.latency_ms > 0:
            raise TopologyError(
                f"link {self.a}-{self.b} must have positive latency"
            )

    def other(self, asn: int) -> int:
        """The endpoint that is not ``asn``."""
        if asn == self.a:
            return self.b
        if asn == self.b:
            return self.a
        raise TopologyError(f"AS {asn} is not an endpoint of {self}")


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


class _Frozen:
    """A checked :data:`LAYOUT` and the dense index derived from it.

    Dense indices number the ASs in ascending ASN order: ``index`` maps
    ASNs to them, ``rank`` is the dense index of each stored AS and
    ``cols`` that of each stored neighbour.  ``csr`` is ``(indptr,
    indices, weights)``, the arcs in ``(row, col)`` order as a canonical
    CSR matrix over dense indices.  Every array is read-only.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        layout: Dict[str, np.ndarray] = {}
        for name, dtype in LAYOUT.items():
            if name not in arrays:
                raise TopologyError(f"topology arrays lack {name!r}")
            view = np.asarray(arrays[name], dtype=dtype).view()
            view.flags.writeable = False
            if view.ndim != 1:
                raise TopologyError(f"topology array {name!r} is not flat")
            layout[name] = view
        self.arrays = layout
        self.asn = asn = layout["asn"]
        self.tier = layout["tier"]
        self.intra = intra = layout["intra_ms"]
        self.endnodes = layout["endnodes"]
        self.pos_x, self.pos_y = layout["pos_x"], layout["pos_y"]
        self.start = start = layout["adj_start"]
        self.adj_asn = adj_asn = layout["adj_asn"]
        self.adj_ms = adj_ms = layout["adj_latency_ms"]
        self._slots: Optional[Dict[int, int]] = None

        n = len(asn)
        if any(len(layout[name]) != n for name in _PER_AS) or len(start) != n + 1:
            raise TopologyError("topology arrays disagree on the number of ASs")
        degree = np.diff(start)
        if start[0] != 0 or (degree < 0).any() or not (
            start[-1] == len(adj_asn) == len(adj_ms)
        ):
            raise TopologyError("adj_start does not delimit the adjacency arrays")
        self.index = index = AsnIndex(asn)
        dense = index.asns
        if not (intra >= 0).all():
            raise TopologyError("intra-AS latencies must be >= 0")
        if (self.endnodes < 0).any():
            raise TopologyError("end-node counts must be >= 0")
        if not np.isin(self.tier, [int(t) for t in ASTier]).all():
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
        self.dense, self.rank, self.cols = dense, rank, cols
        self.csr = (indptr, indices, weights)
        for derived in (rank, cols, *self.csr):
            derived.flags.writeable = False

    def slots(self) -> Dict[int, int]:
        """``asn -> stored position``, built on the first call."""
        if self._slots is None:
            self._slots = dict(zip(self.asn.tolist(), range(len(self.asn))))
        return self._slots

    def slot(self, asn: int) -> int:
        """Stored position of ``asn``; :class:`TopologyError` if absent."""
        try:
            return self.slots()[asn]
        except KeyError as exc:
            raise TopologyError(f"unknown AS {asn}") from exc

    def dense_order(self, values: np.ndarray) -> np.ndarray:
        """Per-AS ``values`` (stored order) as float64 in dense order."""
        out = np.empty(len(values), dtype=np.float64)
        out[self.rank] = values
        return out

    def info_at(self, p: int) -> ASInfo:
        """The attributes of the AS stored at position ``p``."""
        return ASInfo(
            int(self.asn[p]),
            ASTier(int(self.tier[p])),
            float(self.intra[p]),
            int(self.endnodes[p]),
            (float(self.pos_x[p]), float(self.pos_y[p])),
        )

    def thaw(self) -> Tuple[Dict[int, ASInfo], Dict[int, Dict[int, float]]]:
        """The dict form of this graph, in stored order."""
        bounds = self.start.tolist()
        nbrs, latencies = self.adj_asn.tolist(), self.adj_ms.tolist()
        infos: Dict[int, ASInfo] = {}
        adjacency: Dict[int, Dict[int, float]] = {}
        for p, asn in enumerate(self.asn.tolist()):
            infos[asn] = self.info_at(p)
            lo, hi = bounds[p], bounds[p + 1]
            adjacency[asn] = dict(zip(nbrs[lo:hi], latencies[lo:hi]))
        return infos, adjacency


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


def _freeze(
    infos: Dict[int, ASInfo], adjacency: Dict[int, Dict[int, float]]
) -> Dict[str, np.ndarray]:
    """The :data:`LAYOUT` of the dict form, in insertion order."""
    values = list(infos.values())
    attributes = {
        "asn": [i.asn for i in values],
        "tier": [int(i.tier) for i in values],
        "intra_ms": [i.intra_latency_ms for i in values],
        "endnodes": [i.endnodes for i in values],
        "pos_x": [i.position[0] for i in values],
        "pos_y": [i.position[1] for i in values],
    }
    return adjacency_layout(attributes, [adjacency[i.asn] for i in values])


class ASTopology:
    """AS graph with latency and population attributes.

    ASs are keyed by ASN; dense indices ``[0, n)`` number them in
    ascending ASN order, so routing can hand the graph to scipy as a CSR
    matrix.  Every read is served by one representation: the flat arrays
    of :meth:`adjacency_arrays`, the layout the substrate store keeps on
    disk.  :meth:`from_adjacency_arrays` keeps the arrays it is given and
    builds no per-AS object.  :meth:`add_as`, :meth:`add_link` and
    :meth:`remove_link` edit per-AS dicts, scratch space for a graph that
    is being built or changed: the first read after a mutation freezes
    them into the arrays, once, and a mutation of a frozen graph thaws the
    arrays back into dicts first.
    """

    def __init__(self) -> None:
        # Exactly one form is set: the dicts while the graph is edited,
        # the frozen arrays while it is read.
        self._info: Optional[Dict[int, ASInfo]] = {}
        self._adjacency: Optional[Dict[int, Dict[int, float]]] = {}
        self._frozen: Optional[_Frozen] = None

    def _scratch(self) -> Tuple[Dict[int, ASInfo], Dict[int, Dict[int, float]]]:
        """The dict form, for a mutation; drops the frozen arrays."""
        if self._frozen is not None:
            self._info, self._adjacency = self._frozen.thaw()
            self._frozen = None
        return self._info, self._adjacency  # type: ignore[return-value]

    def _read(self) -> _Frozen:
        """The frozen arrays, for a read; frozen from the dicts if edited."""
        frozen = self._frozen
        if frozen is None:
            frozen = _Frozen(_freeze(self._info, self._adjacency))  # type: ignore[arg-type]
            self._frozen, self._info, self._adjacency = frozen, None, None
        return frozen

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_as(self, info: ASInfo) -> None:
        """Register an AS; re-adding an ASN replaces its attributes."""
        if not info.intra_latency_ms >= 0:
            raise TopologyError(f"AS {info.asn}: negative intra-AS latency")
        if info.endnodes < 0:
            raise TopologyError(f"AS {info.asn}: negative end-node count")
        infos, adjacency = self._scratch()
        if info.asn not in infos:
            adjacency[info.asn] = {}
        infos[info.asn] = info

    @classmethod
    def from_adjacency_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ASTopology":
        """Bulk constructor, the inverse of :meth:`adjacency_arrays`.

        The graph keeps the arrays (as read-only views, not copies), so it
        equals the one they were taken from down to the order of
        :meth:`neighbors`, :meth:`links` and :meth:`edge_arrays`.  Raises
        :class:`TopologyError` unless they describe a graph: each AS
        listed once with valid attributes, and each link listed once at
        both ends, between two listed ASs, with one positive latency.
        """
        topo = cls()
        topo._frozen, topo._info, topo._adjacency = _Frozen(arrays), None, None
        return topo

    def add_link(self, a: int, b: int, latency_ms: float) -> None:
        """Add (or update) an undirected link between two registered ASs."""
        link = Link(a, b, latency_ms)  # validates
        infos, adjacency = self._scratch()
        for asn in (a, b):
            if asn not in infos:
                raise TopologyError(f"AS {asn} not registered")
        adjacency[a][b] = link.latency_ms
        adjacency[b][a] = link.latency_ms

    def remove_link(self, a: int, b: int) -> None:
        """Remove an undirected link."""
        _, adjacency = self._scratch()
        if adjacency.get(a, {}).pop(b, None) is None:
            raise TopologyError(f"no link {a}-{b}")
        adjacency[b].pop(a, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._read().asn)

    def __contains__(self, asn: int) -> bool:
        return asn in self._read().index.lookup

    def asns(self) -> List[int]:
        """All AS numbers, ascending."""
        return self._read().dense.tolist()

    def info(self, asn: int) -> ASInfo:
        """Attributes of ``asn``; raises :class:`TopologyError` if absent."""
        frozen = self._read()
        return frozen.info_at(frozen.slot(asn))

    def neighbors(self, asn: int) -> List[int]:
        """Adjacent AS numbers, in stored order."""
        frozen = self._read()
        p = frozen.slot(asn)
        return frozen.adj_asn[frozen.start[p] : frozen.start[p + 1]].tolist()

    def degree(self, asn: int) -> int:
        """Number of inter-AS links at ``asn``."""
        frozen = self._read()
        p = frozen.slot(asn)
        return int(frozen.start[p + 1] - frozen.start[p])

    def link_latency(self, a: int, b: int) -> float:
        """One-way latency of the direct link a-b."""
        frozen = self._read()
        p = frozen.slots().get(a)
        if p is not None:
            lo = frozen.start[p]
            hit = np.flatnonzero(frozen.adj_asn[lo : frozen.start[p + 1]] == b)
            if hit.size:
                return float(frozen.adj_ms[lo + hit[0]])
        raise TopologyError(f"no link {a}-{b}")

    def links(self) -> Iterator[Link]:
        """All undirected links, each yielded once (a < b), in stored order."""
        frozen = self._read()
        owners = np.repeat(frozen.asn, np.diff(frozen.start))
        once = owners < frozen.adj_asn
        for a, b, latency in zip(
            owners[once].tolist(),
            frozen.adj_asn[once].tolist(),
            frozen.adj_ms[once].tolist(),
        ):
            yield Link(a, b, latency)

    def n_links(self) -> int:
        """Number of undirected links."""
        return len(self._read().adj_asn) // 2

    def endnode_counts(self) -> Dict[int, int]:
        """End-node population per AS (query/insert origin weights)."""
        frozen = self._read()
        return dict(zip(frozen.asn.tolist(), frozen.endnodes.tolist()))

    def intra_latency(self, asn: int) -> float:
        """One-way intra-AS latency of ``asn``."""
        frozen = self._read()
        return float(frozen.intra[frozen.slot(asn)])

    # ------------------------------------------------------------------
    # Dense indexing / export
    # ------------------------------------------------------------------
    def index_of(self, asn: int) -> int:
        """Dense index of ``asn`` in [0, n)."""
        try:
            return self._read().index.lookup[asn]
        except KeyError as exc:
            raise TopologyError(f"unknown AS {asn}") from exc

    def asn_at(self, index: int) -> int:
        """Inverse of :meth:`index_of`."""
        return int(self._read().dense[index])

    def asn_index(self) -> AsnIndex:
        """The graph's ASN -> dense-index map (see :class:`AsnIndex`)."""
        return self._read().index

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, weights)``: the latency graph over dense
        indices as a canonical CSR matrix (rows ascending, columns
        ascending within a row), as the load's symmetry check sorted it.
        The arrays are read-only; the index arrays have the dtype scipy
        picks for them (int32 unless the graph needs int64)."""
        return self._read().csr

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, weights)`` over dense indices, one entry per
        directed edge in stored order — the CSR ingredients for scipy
        routing.  ``cols`` and ``weights`` are read-only."""
        frozen = self._read()
        rows = np.repeat(frozen.rank, np.diff(frozen.start))
        return rows, frozen.cols, frozen.adj_ms

    def adjacency_arrays(self) -> Dict[str, np.ndarray]:
        """The whole graph as flat arrays (fresh copies), ASs and each AS's
        neighbours in insertion order (see :meth:`from_adjacency_arrays`).

        Per AS ``i``: ``asn``, ``tier``, ``intra_ms``, ``endnodes``,
        ``pos_x``, ``pos_y``; its links are entries
        ``adj_start[i]:adj_start[i + 1]`` of ``adj_asn`` (the neighbour)
        and ``adj_latency_ms``.  Every link appears at both ends.
        """
        return {name: array.copy() for name, array in self._read().arrays.items()}

    def intra_latency_array(self) -> np.ndarray:
        """Intra-AS latencies in dense-index order."""
        frozen = self._read()
        return frozen.dense_order(frozen.intra)

    def endnode_array(self) -> np.ndarray:
        """End-node counts in dense-index order."""
        frozen = self._read()
        return frozen.dense_order(frozen.endnodes)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        The simulation requires a connected graph (every AS must be able
        to reach every mapping host) with positive latencies.
        """
        frozen = self._read()
        n = len(frozen.asn)
        if not n:
            raise TopologyError("topology is empty")
        indptr, indices, _ = self.csr_arrays()
        graph = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
        _, labels = connected_components(graph, directed=False)
        missing = int(np.count_nonzero(labels != labels[frozen.rank[0]]))
        if missing:
            raise TopologyError(f"topology is disconnected ({missing} ASs unreachable)")
