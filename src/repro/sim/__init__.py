"""Discrete-event simulation of DMap over the AS-level Internet."""

from .engine import EventHandle, Simulator
from .failures import ChurnFailureModel, FailureModel
from .metrics import (
    LatencySummary,
    MetricsCollector,
    QueryRecord,
    cdf_points,
    fraction_below,
    normalized_load_ratios,
    summarize,
)
from .network import Message, MessageKind, Network
from .node import ASNode, ENTRY_SIZE_BITS, REQUEST_SIZE_BITS
from .simulation import DMapSimulation, InsertRecord

__all__ = [
    "EventHandle",
    "Simulator",
    "ChurnFailureModel",
    "FailureModel",
    "LatencySummary",
    "MetricsCollector",
    "QueryRecord",
    "cdf_points",
    "fraction_below",
    "normalized_load_ratios",
    "summarize",
    "Message",
    "MessageKind",
    "Network",
    "ASNode",
    "ENTRY_SIZE_BITS",
    "REQUEST_SIZE_BITS",
    "DMapSimulation",
    "InsertRecord",
]
