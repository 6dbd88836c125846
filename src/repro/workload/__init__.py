"""Workload models: popularity, source weighting, event streams, mobility."""

from .generator import (
    EventKind,
    Workload,
    WorkloadConfig,
    WorkloadEvent,
    WorkloadGenerator,
)
from .mobility import MobilityModel, MoveEvent, PAPER_UPDATES_PER_DAY
from .popularity import MandelbrotZipf, PAPER_ALPHA, PAPER_Q
from .sources import SourceSampler

__all__ = [
    "EventKind",
    "Workload",
    "WorkloadConfig",
    "WorkloadEvent",
    "WorkloadGenerator",
    "MobilityModel",
    "MoveEvent",
    "PAPER_UPDATES_PER_DAY",
    "MandelbrotZipf",
    "PAPER_ALPHA",
    "PAPER_Q",
    "SourceSampler",
]
