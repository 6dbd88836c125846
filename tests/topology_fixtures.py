"""Tiny hand-built topologies whose shortest paths are known by inspection."""

from repro.errors import TopologyError
from repro.topology.graph import ASInfo, ASTier, ASTopology


def line_fixture(n: int = 4, link_ms: float = 10.0, intra_ms: float = 1.0) -> ASTopology:
    """A path graph 1-2-...-n with uniform latencies.

    Shortest-path latency between AS i and AS j is ``|i - j| * link_ms``,
    which makes routing assertions trivial.
    """
    if n < 2:
        raise TopologyError("line fixture needs at least 2 ASs")
    topo = ASTopology()
    for asn in range(1, n + 1):
        topo.add_as(ASInfo(asn, ASTier.STUB, intra_ms, endnodes=10))
    for asn in range(1, n):
        topo.add_link(asn, asn + 1, link_ms)
    return topo


def star_fixture(
    n_leaves: int = 5, link_ms: float = 5.0, intra_ms: float = 1.0
) -> ASTopology:
    """Hub AS 1 with ``n_leaves`` leaf ASs 2..n+1 — a minimal Jellyfish
    (core = the hub edge clique, every leaf in Hang-0)."""
    if n_leaves < 1:
        raise TopologyError("star fixture needs at least 1 leaf")
    topo = ASTopology()
    topo.add_as(ASInfo(1, ASTier.TIER1, intra_ms, endnodes=10))
    for asn in range(2, n_leaves + 2):
        topo.add_as(ASInfo(asn, ASTier.STUB, intra_ms, endnodes=10))
        topo.add_link(1, asn, link_ms)
    return topo
