"""BGP substrate: prefixes, the global prefix table, LPM and churn."""

from .allocation import (
    AllocationConfig,
    BuddyAllocator,
    DEFAULT_LENGTH_MIX,
    PAPER_ANNOUNCEMENT_RATIO,
    PAPER_PREFIX_COUNT,
    generate_global_prefix_table,
)
from .churn import (
    ChurnEvent,
    ChurnKind,
    ChurnScheduleGenerator,
)
from .interval_index import HOLE, IntervalIndex
from .prefix import Announcement, Prefix
from .table import GlobalPrefixTable

__all__ = [
    "AllocationConfig",
    "BuddyAllocator",
    "DEFAULT_LENGTH_MIX",
    "PAPER_ANNOUNCEMENT_RATIO",
    "PAPER_PREFIX_COUNT",
    "generate_global_prefix_table",
    "ChurnEvent",
    "ChurnKind",
    "ChurnScheduleGenerator",
    "HOLE",
    "IntervalIndex",
    "Announcement",
    "Prefix",
    "GlobalPrefixTable",
]
