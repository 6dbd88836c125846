"""Closed-form analysis: §V response-time bound and §IV-A overheads."""

from .jellyfish_model import (
    AnalyticalModel,
    PAPER_C0,
    PAPER_C1,
    expected_min_distance_bound,
    p_jl,
    q_l,
    response_time_upper_bound_ms,
)
from .overhead import (
    OverheadModel,
    PAPER_INTERNET_TRAFFIC_GBPS,
    PAPER_K,
    PAPER_N_GUIDS,
    entry_size_bits,
)
from .scenarios import (
    LONG_TERM_RATIOS,
    MEDIUM_TERM_RATIOS,
    PRESENT_DAY_RATIOS,
    SCENARIO_NODE_COUNTS,
    all_scenarios,
    long_term_model,
    medium_term_model,
    present_day_model,
)

__all__ = [
    "AnalyticalModel",
    "PAPER_C0",
    "PAPER_C1",
    "expected_min_distance_bound",
    "p_jl",
    "q_l",
    "response_time_upper_bound_ms",
    "OverheadModel",
    "PAPER_INTERNET_TRAFFIC_GBPS",
    "PAPER_K",
    "PAPER_N_GUIDS",
    "entry_size_bits",
    "LONG_TERM_RATIOS",
    "MEDIUM_TERM_RATIOS",
    "PRESENT_DAY_RATIOS",
    "SCENARIO_NODE_COUNTS",
    "all_scenarios",
    "long_term_model",
    "medium_term_model",
    "present_day_model",
]
