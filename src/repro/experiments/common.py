"""Shared experiment infrastructure: scales, environments, caching.

Every evaluation artifact in the paper runs over the same substrate — the
DIMES-derived AS topology and the DIX-IE prefix table.  Experiments here
share one :class:`Environment` per (scale, seed).  Its substrate is
generated once and then loaded from a content-addressed store on disk:
one ``substrate-<key>.npz`` per substrate under ``REPRO_CACHE_DIR``
(default ``~/.cache/repro-dmap``), where the key hashes everything the
substrate depends on, generator code included (:func:`substrate_key`),
and a digest of the payload is checked on every load.

Three scales:

* ``small``  — 400 ASs; seconds; used by tests and quick looks.
* ``medium`` — 3,000 ASs; tens of seconds; ``results/medium_scale_all.txt``.
* ``paper``  — 26,424 ASs / 330k prefixes / 10^5 GUIDs / 10^6 lookups,
  the paper's full configuration (§IV-B.1); minutes.

Pick with the ``REPRO_SCALE`` environment variable or an explicit
argument.  Latency *shapes* (CDF orderings, ratios between K values) are
stable across scales; absolute milliseconds drift slightly because paths
lengthen with graph size.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
import zipfile
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..bgp.allocation import AllocationConfig, generate_global_prefix_table
from ..bgp.table import GlobalPrefixTable
from ..errors import ConfigurationError
from ..topology import datasets
from ..topology.generator import TopologyConfig, generate_internet_topology
from ..topology.graph import ASTopology
from ..topology.routing import Router

#: Where the substrate store lives (override with REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = os.path.join(os.path.expanduser("~"), ".cache", "repro-dmap")

#: Layout of a ``substrate-<key>.npz`` file; part of the key.
STORE_FORMAT_VERSION = 1

#: Modules whose code generates a substrate.  Their bytes are part of the
#: store key, so an edited generator never meets a stale substrate.
GENERATOR_MODULES = (
    "repro.topology.generator",
    "repro.topology.latency",
    "repro.topology.graph",
    "repro.bgp.allocation",
    "repro.bgp.prefix",
)


@dataclass(frozen=True)
class Scale:
    """One experiment scale: substrate and workload sizes."""

    name: str
    n_as: int
    n_guids: int
    n_lookups: int
    prefixes_per_as: float
    total_endnodes: int


SCALES: Dict[str, Scale] = {
    "small": Scale("small", 400, 2_000, 20_000, 6.0, 400_000),
    "medium": Scale("medium", 3_000, 10_000, 100_000, 10.0, 3_000_000),
    "paper": Scale("paper", 26_424, 100_000, 1_000_000, 12.5, 50_000_000),
}


def resolve_scale(name: Optional[str] = None) -> Scale:
    """Scale by explicit name, else ``REPRO_SCALE`` env var, else small."""
    chosen = name or os.environ.get("REPRO_SCALE", "small")
    try:
        return SCALES[chosen]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scale {chosen!r}; expected one of {sorted(SCALES)}"
        ) from exc


class Environment:
    """A substrate instance: topology + prefix table + router.

    Construction is deterministic in ``(scale, seed)`` and the code.  The
    first construction generates the topology and the prefix table and
    writes both to the substrate store in ``cache_dir``; later ones load
    and verify them instead (:func:`substrate_key`), which gives the same
    substrate, neighbour order included.  The router is built fresh.

    ``substrate_key`` names the stored substrate, ``substrate_loaded``
    tells whether this construction loaded it (else it generated it), and
    ``setup_s`` is the construction's duration in seconds.
    """

    def __init__(self, scale: Scale, seed: int = 0, cache_dir: Optional[str] = None):
        start = time.perf_counter()
        self.scale = scale
        self.seed = seed
        cache_dir = cache_dir or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.substrate_key = substrate_key(scale, seed)
        path = os.path.join(cache_dir, f"substrate-{self.substrate_key}.npz")
        stored = _read_substrate(path, self.substrate_key)
        self.substrate_loaded = stored is not None
        self.topology: ASTopology
        self.table: GlobalPrefixTable
        if stored is None:
            self.topology = generate_internet_topology(_topology_config(scale), seed=seed)
            self.table = generate_global_prefix_table(
                self.topology.asns(), _allocation_config(scale), seed=seed + 1
            )
            _write_substrate(path, self.substrate_key, self.topology, self.table)
        else:
            self.topology = datasets.load_topology(stored)
            self.table = GlobalPrefixTable.from_arrays(
                stored["prefix_base"],
                stored["prefix_length"],
                stored["prefix_asn"],
                bits=_allocation_config(scale).bits,
            )
        self.router = Router(self.topology)
        self.setup_s = time.perf_counter() - start


def _topology_config(scale: Scale) -> TopologyConfig:
    return TopologyConfig(n_as=scale.n_as, total_endnodes=scale.total_endnodes)


def _allocation_config(scale: Scale) -> AllocationConfig:
    return AllocationConfig(prefixes_per_as=scale.prefixes_per_as)


def _module_bytes(name: str) -> bytes:
    """Source of module ``name`` as imported (from site-packages too)."""
    with open(importlib.import_module(name).__spec__.origin, "rb") as fh:
        return fh.read()


def substrate_key(scale: Scale, seed: int) -> str:
    """SHA-256 (hex) naming the substrate of ``(scale, seed)`` in the store.

    It covers everything the substrate is a function of: the store format
    (with :data:`repro.topology.datasets.FORMAT_VERSION`), the scale's
    substrate fields, both generator configs, the seed, the numpy version
    (its random streams) and the bytes of :data:`GENERATOR_MODULES`.
    """
    parts = [
        f"format={STORE_FORMAT_VERSION} topology_format={datasets.FORMAT_VERSION}",
        f"n_as={scale.n_as} total_endnodes={scale.total_endnodes} "
        f"prefixes_per_as={scale.prefixes_per_as!r}",
        repr(_topology_config(scale)),
        repr(_allocation_config(scale)),
        f"seed={seed}",
        f"numpy={np.__version__}",
    ]
    parts += [
        f"{name}={hashlib.sha256(_module_bytes(name)).hexdigest()}"
        for name in GENERATOR_MODULES
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _payload_digest(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape and bytes."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}\n".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _read_substrate(path: str, key: str) -> Optional[Dict[str, np.ndarray]]:
    """The stored payload at ``path``, or ``None`` when the file is missing,
    unreadable, or fails its digest or key check (then it is rebuilt)."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile):
        return None
    digest = arrays.pop("digest", None)
    if (
        digest is None
        or str(digest) != _payload_digest(arrays)
        or str(arrays.get("key")) != key
    ):
        return None
    return arrays


def _write_substrate(
    path: str, key: str, topology: ASTopology, table: GlobalPrefixTable
) -> None:
    """Write the substrate to ``path`` atomically (temp file, then
    :func:`os.replace`), with a digest of its payload."""
    bases, lengths, asns = table.prefix_arrays()
    payload = {
        "key": np.array(key),
        **datasets.topology_arrays(topology),
        "prefix_base": bases,
        "prefix_length": lengths,
        "prefix_asn": asns,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, digest=np.array(_payload_digest(payload)), **payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


_ENVIRONMENTS: Dict[tuple, Environment] = {}


def get_environment(scale_name: Optional[str] = None, seed: int = 0) -> Environment:
    """Process-wide memoized environment for ``(scale, seed)``."""
    scale = resolve_scale(scale_name)
    key = (scale.name, seed)
    env = _ENVIRONMENTS.get(key)
    if env is None:
        env = Environment(scale, seed)
        _ENVIRONMENTS[key] = env
    return env
