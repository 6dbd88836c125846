"""DMap core: GUIDs, mapping entries, the resolver and its policies."""

from .cache import CacheStats, CachingResolver
from .consistency import (
    audit_placement,
    handle_new_announcement,
    is_stale,
    prepare_withdrawal,
    repair_mapping,
)
from .guid import (
    ADDRESS_BITS,
    GUID,
    GUID_BITS,
    MAX_LOCATORS,
    NetworkAddress,
    guid_like,
)
from .mapping import METADATA_BITS, MappingEntry, MappingStore, StoreStats
from .replication import SELECTION_POLICIES, ReplicaSelector, ReplicaSet
from .resolver import (
    DEFAULT_TIMEOUT_MS,
    DMapResolver,
    FailureModel,
    LookupResult,
    OUTCOME_HIT,
    OUTCOME_MISSING,
    OUTCOME_TIMEOUT,
    WriteResult,
)

__all__ = [
    "CacheStats",
    "CachingResolver",
    "audit_placement",
    "handle_new_announcement",
    "is_stale",
    "prepare_withdrawal",
    "repair_mapping",
    "ADDRESS_BITS",
    "GUID",
    "GUID_BITS",
    "MAX_LOCATORS",
    "NetworkAddress",
    "guid_like",
    "METADATA_BITS",
    "MappingEntry",
    "MappingStore",
    "StoreStats",
    "SELECTION_POLICIES",
    "ReplicaSelector",
    "ReplicaSet",
    "DEFAULT_TIMEOUT_MS",
    "DMapResolver",
    "FailureModel",
    "LookupResult",
    "OUTCOME_HIT",
    "OUTCOME_MISSING",
    "OUTCOME_TIMEOUT",
    "WriteResult",
]
