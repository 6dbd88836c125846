"""Topology persistence.

A topology on disk is the arrays of :func:`topology_arrays`: a format
version plus :meth:`ASTopology.adjacency_arrays`.  :func:`save_topology`
writes them alone to an ``.npz`` archive; the substrate store of
:mod:`repro.experiments.common` writes them beside the prefix table, and
decodes them with :func:`load_topology` too.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Union

import numpy as np

from ..errors import TopologyError
from .graph import ASTopology

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
