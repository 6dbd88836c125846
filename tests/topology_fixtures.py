"""Tiny hand-built topologies whose shortest paths are known by inspection."""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.graph import ASTier, ASTopology, adjacency_layout


def layout(
    adjacency: Dict[int, List[Tuple[int, float]]],
    asns: Optional[Sequence[int]] = None,
    *,
    tier=ASTier.STUB,
    intra_ms=1.0,
    endnodes=1,
) -> Dict[str, np.ndarray]:
    """Arrays of a graph whose ASs list ``adjacency[asn]`` as their
    ``(neighbour, latency)`` entries, in order.

    ASs are stored in ``asns`` order (default: ``adjacency``'s); an AS
    missing from ``adjacency`` has no links.  ``tier``, ``intra_ms`` and
    ``endnodes`` are one value for every AS or one per AS, in ``asns``
    order.  Each AS's entries pass through a ``neighbour -> latency``
    dict, so a neighbour listed twice under one AS is kept once.
    """
    asns = list(adjacency) if asns is None else list(asns)

    def column(value) -> np.ndarray:
        return np.broadcast_to(np.asarray(value), (len(asns),))

    attributes = {
        "asn": asns,
        "tier": column(tier),
        "intra_ms": column(intra_ms),
        "endnodes": column(endnodes),
        "pos_x": column(0.0),
        "pos_y": column(0.0),
    }
    return adjacency_layout(attributes, [dict(adjacency.get(asn, ())) for asn in asns])


def linked(
    links: Iterable[Tuple[int, int, float]], asns: Sequence[int], **columns
) -> ASTopology:
    """The topology over ``asns`` of the undirected ``(a, b, latency)``
    ``links``: each AS lists its links in the order given.  ``columns``
    are :func:`layout`'s per-AS values."""
    adjacency: Dict[int, List[Tuple[int, float]]] = {asn: [] for asn in asns}
    for a, b, latency in links:
        adjacency[a].append((b, latency))
        adjacency[b].append((a, latency))
    return ASTopology(layout(adjacency, **columns))


def coo_arrays(topo: ASTopology) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, weights)`` over dense indices, one entry per arc in
    stored order: the COO form of the graph, from its stored arrays."""
    arrays = topo.adjacency_arrays()
    dense_of = topo.asn_index().dense_of
    rows = np.repeat(dense_of(arrays["asn"]), np.diff(arrays["adj_start"]))
    return rows, dense_of(arrays["adj_asn"]), arrays["adj_latency_ms"]


def line_fixture(n: int = 4, link_ms: float = 10.0, intra_ms: float = 1.0) -> ASTopology:
    """A path graph 1-2-...-n with uniform latencies.

    Shortest-path latency between AS i and AS j is ``|i - j| * link_ms``,
    which makes routing assertions trivial.
    """
    if n < 2:
        raise TopologyError("line fixture needs at least 2 ASs")
    links = [(asn, asn + 1, link_ms) for asn in range(1, n)]
    return linked(links, range(1, n + 1), intra_ms=intra_ms, endnodes=10)


def star_fixture(
    n_leaves: int = 5, link_ms: float = 5.0, intra_ms: float = 1.0
) -> ASTopology:
    """Hub AS 1 (tier 1) with ``n_leaves`` stub leaf ASs 2..n+1."""
    if n_leaves < 1:
        raise TopologyError("star fixture needs at least 1 leaf")
    leaves = range(2, n_leaves + 2)
    return linked(
        [(1, asn, link_ms) for asn in leaves],
        [1, *leaves],
        tier=[ASTier.TIER1] + [ASTier.STUB] * n_leaves,
        intra_ms=intra_ms,
        endnodes=10,
    )
