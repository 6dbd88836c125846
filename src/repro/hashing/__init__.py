"""Consistent hashing of GUIDs into announced address space (§III-A/B)."""

from .asnum_placer import ASNumberPlacer, WeightedASPlacer
from .bucketing import BucketIndex, BucketResolution
from .hashers import FastHasher, HashFamily, Sha256Hasher
from .rehash import (
    DEFAULT_MAX_REHASHES,
    GuidPlacer,
    HashResolution,
    hole_probability,
)

__all__ = [
    "ASNumberPlacer",
    "WeightedASPlacer",
    "BucketIndex",
    "BucketResolution",
    "FastHasher",
    "HashFamily",
    "Sha256Hasher",
    "DEFAULT_MAX_REHASHES",
    "GuidPlacer",
    "HashResolution",
    "hole_probability",
]
