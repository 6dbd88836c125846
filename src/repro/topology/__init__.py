"""AS-level topology substrate: graph, generator, routing."""

from .datasets import load_topology, save_topology
from .generator import (
    PAPER_N_AS,
    PAPER_N_LINKS,
    TopologyConfig,
    generate_internet_topology,
    small_scale_config,
)
from .graph import ASTier, ASTopology
from .latency import GeographyModel, LatencyModel, PAPER_MEDIAN_INTRA_MS
from .routing import Router

__all__ = [
    "load_topology",
    "save_topology",
    "PAPER_N_AS",
    "PAPER_N_LINKS",
    "TopologyConfig",
    "generate_internet_topology",
    "small_scale_config",
    "ASTier",
    "ASTopology",
    "GeographyModel",
    "LatencyModel",
    "PAPER_MEDIAN_INTRA_MS",
    "Router",
]
