"""Topology persistence and small built-in fixtures.

A topology on disk is the arrays of :func:`topology_arrays`: a format
version plus :meth:`ASTopology.adjacency_arrays`.  :func:`save_topology`
writes them alone to an ``.npz`` archive; the substrate store of
:mod:`repro.experiments.common` writes them beside the prefix table, and
decodes them with :func:`load_topology` too.  Tests use the tiny
hand-built fixtures, whose shortest paths are known by inspection.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Union

import numpy as np

from ..errors import TopologyError
from .graph import ASInfo, ASTier, ASTopology

#: Layout of :func:`topology_arrays`.
FORMAT_VERSION = 2


def topology_arrays(topology: ASTopology) -> Dict[str, np.ndarray]:
    """The arrays that store ``topology`` (see :func:`load_topology`)."""
    return {
        "topology_version": np.int64(FORMAT_VERSION),
        **topology.adjacency_arrays(),
    }


def save_topology(topology: ASTopology, path: str) -> None:
    """Serialize a topology to a compressed ``.npz`` archive."""
    np.savez_compressed(path, **topology_arrays(topology))


def load_topology(source: Union[str, Mapping[str, np.ndarray]]) -> ASTopology:
    """The topology stored in ``source``: the path of an ``.npz`` archive
    holding :func:`topology_arrays` (as :func:`save_topology` writes), or
    those arrays themselves.  Equal to the stored one, neighbour order
    included."""
    if isinstance(source, str):
        if not os.path.exists(source):
            raise TopologyError(f"no topology archive at {source}")
        with np.load(source) as data:
            source = {name: data[name] for name in data.files}
    version = source.get("topology_version")
    if version is None or int(version) != FORMAT_VERSION:
        raise TopologyError(f"unsupported topology format version {version}")
    return ASTopology.from_adjacency_arrays(source)


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
