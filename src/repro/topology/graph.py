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
from typing import Dict, Iterator, List, Mapping, Tuple

import numpy as np

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
        if self.latency_ms <= 0:
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


class ASTopology:
    """Mutable AS graph with latency and population attributes.

    ASs are keyed by ASN.  Internally the class also maintains a dense
    index (``asn -> [0, n)``) so routing can hand the graph to scipy as a
    CSR matrix without re-walking dictionaries.
    """

    def __init__(self) -> None:
        self._info: Dict[int, ASInfo] = {}
        self._adjacency: Dict[int, Dict[int, float]] = {}
        # Undirected link count, kept in step with ``_adjacency`` so that
        # ``n_links`` is O(1) (the generator polls it once per peering try).
        self._n_links = 0
        self._dirty = True
        self._index: Dict[int, int] = {}
        self._asns: List[int] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_as(self, info: ASInfo) -> None:
        """Register an AS; re-adding an ASN replaces its attributes."""
        if info.intra_latency_ms < 0:
            raise TopologyError(f"AS {info.asn}: negative intra-AS latency")
        if info.endnodes < 0:
            raise TopologyError(f"AS {info.asn}: negative end-node count")
        if info.asn not in self._info:
            self._adjacency[info.asn] = {}
            self._dirty = True
        self._info[info.asn] = info

    @classmethod
    def from_adjacency_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ASTopology":
        """Bulk constructor, the inverse of :meth:`adjacency_arrays`.

        The result equals the graph the arrays were taken from, down to
        the order of :meth:`neighbors`, :meth:`links` and
        :meth:`edge_arrays`: each AS's neighbour dict is rebuilt in its
        insertion order rather than replayed link by link through
        :meth:`add_link`, which would reorder it.  Raises
        :class:`TopologyError` unless every link is listed at both ends
        with one positive latency.
        """
        topo = cls()
        bounds = arrays["adj_start"].tolist()
        nbr_asns = arrays["adj_asn"].tolist()
        latencies = arrays["adj_latency_ms"].tolist()
        for i, (asn, tier, intra, endnodes, x, y) in enumerate(zip(
            arrays["asn"].tolist(),
            arrays["tier"].tolist(),
            arrays["intra_ms"].tolist(),
            arrays["endnodes"].tolist(),
            arrays["pos_x"].tolist(),
            arrays["pos_y"].tolist(),
        )):
            topo.add_as(ASInfo(asn, ASTier(tier), intra, endnodes, (x, y)))
            lo, hi = bounds[i], bounds[i + 1]
            topo._adjacency[asn] = dict(zip(nbr_asns[lo:hi], latencies[lo:hi]))
        adjacency = topo._adjacency
        for a, nbrs in adjacency.items():
            for b, latency in nbrs.items():
                if a == b or not latency > 0 or adjacency.get(b, {}).get(a) != latency:
                    raise TopologyError(f"link {a}-{b} is not one symmetric positive link")
        topo._n_links = sum(len(nbrs) for nbrs in adjacency.values()) // 2
        return topo

    def add_link(self, a: int, b: int, latency_ms: float) -> None:
        """Add (or update) an undirected link between two registered ASs."""
        link = Link(a, b, latency_ms)  # validates
        for asn in (a, b):
            if asn not in self._info:
                raise TopologyError(f"AS {asn} not registered")
        if b not in self._adjacency[a]:
            self._n_links += 1
        self._adjacency[a][b] = link.latency_ms
        self._adjacency[b][a] = link.latency_ms
        self._dirty = True

    def remove_link(self, a: int, b: int) -> None:
        """Remove an undirected link (used by failure injection)."""
        if self._adjacency.get(a, {}).pop(b, None) is None:
            raise TopologyError(f"no link {a}-{b}")
        self._adjacency[b].pop(a, None)
        self._n_links -= 1
        self._dirty = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._info)

    def __contains__(self, asn: int) -> bool:
        return asn in self._info

    def asns(self) -> List[int]:
        """All AS numbers, ascending."""
        self._refresh_index()
        return list(self._asns)

    def info(self, asn: int) -> ASInfo:
        """Attributes of ``asn``; raises :class:`TopologyError` if absent."""
        try:
            return self._info[asn]
        except KeyError as exc:
            raise TopologyError(f"unknown AS {asn}") from exc

    def neighbors(self, asn: int) -> List[int]:
        """Adjacent AS numbers."""
        if asn not in self._adjacency:
            raise TopologyError(f"unknown AS {asn}")
        return list(self._adjacency[asn])

    def degree(self, asn: int) -> int:
        """Number of inter-AS links at ``asn``."""
        if asn not in self._adjacency:
            raise TopologyError(f"unknown AS {asn}")
        return len(self._adjacency[asn])

    def link_latency(self, a: int, b: int) -> float:
        """One-way latency of the direct link a-b."""
        try:
            return self._adjacency[a][b]
        except KeyError as exc:
            raise TopologyError(f"no link {a}-{b}") from exc

    def links(self) -> Iterator[Link]:
        """All undirected links, each yielded once (a < b)."""
        for a, nbrs in self._adjacency.items():
            for b, latency in nbrs.items():
                if a < b:
                    yield Link(a, b, latency)

    def n_links(self) -> int:
        """Number of undirected links."""
        return self._n_links

    def endnode_counts(self) -> Dict[int, int]:
        """End-node population per AS (query/insert origin weights)."""
        return {asn: info.endnodes for asn, info in self._info.items()}

    def intra_latency(self, asn: int) -> float:
        """One-way intra-AS latency of ``asn``."""
        return self.info(asn).intra_latency_ms

    # ------------------------------------------------------------------
    # Dense indexing / export
    # ------------------------------------------------------------------
    def _refresh_index(self) -> None:
        if not self._dirty:
            return
        self._asns = sorted(self._info)
        self._index = {asn: i for i, asn in enumerate(self._asns)}
        self._dirty = False

    def index_of(self, asn: int) -> int:
        """Dense index of ``asn`` in [0, n)."""
        self._refresh_index()
        try:
            return self._index[asn]
        except KeyError as exc:
            raise TopologyError(f"unknown AS {asn}") from exc

    def asn_at(self, index: int) -> int:
        """Inverse of :meth:`index_of`."""
        self._refresh_index()
        return self._asns[index]

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, weights)`` over dense indices, one entry per
        directed edge — the CSR ingredients for scipy routing."""
        self._refresh_index()
        rows: List[int] = []
        cols: List[int] = []
        weights: List[float] = []
        for a, nbrs in self._adjacency.items():
            ia = self._index[a]
            for b, latency in nbrs.items():
                rows.append(ia)
                cols.append(self._index[b])
                weights.append(latency)
        return (
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(weights, dtype=np.float64),
        )

    def adjacency_arrays(self) -> Dict[str, np.ndarray]:
        """The whole graph as flat arrays, ASs and each AS's neighbours in
        insertion order (see :meth:`from_adjacency_arrays`).

        Per AS ``i``: ``asn``, ``tier``, ``intra_ms``, ``endnodes``,
        ``pos_x``, ``pos_y``; its links are entries
        ``adj_start[i]:adj_start[i + 1]`` of ``adj_asn`` (the neighbour)
        and ``adj_latency_ms``.  Every link appears at both ends.
        """
        infos = list(self._info.values())
        degrees = [len(self._adjacency[info.asn]) for info in infos]
        return {
            "asn": np.asarray([i.asn for i in infos], dtype=np.int64),
            "tier": np.asarray([int(i.tier) for i in infos], dtype=np.int64),
            "intra_ms": np.asarray([i.intra_latency_ms for i in infos], dtype=np.float64),
            "endnodes": np.asarray([i.endnodes for i in infos], dtype=np.int64),
            "pos_x": np.asarray([i.position[0] for i in infos], dtype=np.float64),
            "pos_y": np.asarray([i.position[1] for i in infos], dtype=np.float64),
            "adj_start": np.concatenate(([0], np.cumsum(degrees, dtype=np.int64))),
            "adj_asn": np.asarray(
                [b for i in infos for b in self._adjacency[i.asn]], dtype=np.int64
            ),
            "adj_latency_ms": np.asarray(
                [lat for i in infos for lat in self._adjacency[i.asn].values()],
                dtype=np.float64,
            ),
        }

    def intra_latency_array(self) -> np.ndarray:
        """Intra-AS latencies in dense-index order."""
        self._refresh_index()
        return np.asarray(
            [self._info[asn].intra_latency_ms for asn in self._asns], dtype=np.float64
        )

    def endnode_array(self) -> np.ndarray:
        """End-node counts in dense-index order."""
        self._refresh_index()
        return np.asarray(
            [self._info[asn].endnodes for asn in self._asns], dtype=np.float64
        )

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        The simulation requires a connected graph (every AS must be able
        to reach every mapping host) with positive latencies.
        """
        if not self._info:
            raise TopologyError("topology is empty")
        # Connectivity via BFS from an arbitrary AS.
        start = next(iter(self._info))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt: List[int] = []
            for asn in frontier:
                for nbr in self._adjacency[asn]:
                    if nbr not in seen:
                        seen.add(nbr)
                        nxt.append(nbr)
            frontier = nxt
        if len(seen) != len(self._info):
            missing = len(self._info) - len(seen)
            raise TopologyError(f"topology is disconnected ({missing} ASs unreachable)")
