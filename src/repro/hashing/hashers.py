"""Families of K independent consistent hash functions GUID → address.

DMap applies ``K > 1`` predefined hash functions to a GUID to obtain K
network addresses (§III-A).  The functions must be (a) deterministic and
agreed upon by every router in advance, (b) pairwise independent enough that
the K replicas land at unrelated ASs, and (c) near-uniform over the address
space so storage load is proportional to announced space (§IV-B.2c).

Two interchangeable implementations are provided:

* :class:`Sha256Hasher` — the reference implementation: SHA-256 over the
  GUID bytes with a per-function salt.  Cryptographic quality, used by the
  resolver and the discrete-event simulation.
* :class:`FastHasher` — a vectorized numpy implementation (splitmix64-style
  integer mixing) used by the storage-load experiment, which hashes up to
  10^7 GUIDs × K replicas (Fig. 6).  Statistically uniform, not
  cryptographic.

Both satisfy the :class:`HashFamily` interface and are property-tested for
determinism and uniformity.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from hashlib import sha256
from typing import List, Sequence, Union

import numpy as np

from ..core.guid import ADDRESS_BITS, GUID
from ..errors import ConfigurationError

GuidLike = Union[GUID, int]


def _guid_value(guid: GuidLike) -> int:
    return guid.value if isinstance(guid, GUID) else int(guid)


class HashFamily(ABC):
    """K deterministic hash functions from GUID space to address space."""

    def __init__(self, k: int, address_bits: int = ADDRESS_BITS) -> None:
        if k < 1:
            raise ConfigurationError(f"replication factor K must be >= 1, got {k}")
        if address_bits < 1:
            raise ConfigurationError("address_bits must be positive")
        self.k = k
        self.address_bits = address_bits

    @abstractmethod
    def hash_one(self, guid: GuidLike, index: int) -> int:
        """Apply hash function ``index`` (0-based, < K) to ``guid``."""

    def hash_all(self, guid: GuidLike) -> List[int]:
        """Apply all K functions; returns K address values."""
        return [self.hash_one(guid, i) for i in range(self.k)]

    def rehash(self, address_value: int, index: int) -> int:
        """Re-hash an address value (IP-hole protocol, Algorithm 1 line 7).

        The re-hash keeps the same function index so the K replica chains
        stay independent.
        """
        return self.hash_one(address_value, index)


class Sha256Hasher(HashFamily):
    """Salted SHA-256 hash family (reference implementation).

    Function ``i`` computes ``SHA256(salt || i || value-bytes)`` and keeps
    the top ``address_bits`` bits.  All routers agree on ``salt`` and K out
    of band, as the paper requires for its "predefined consistent hash
    function" (§III-A).
    """

    def __init__(
        self,
        k: int,
        address_bits: int = ADDRESS_BITS,
        salt: bytes = b"dmap",
    ) -> None:
        super().__init__(k, address_bits)
        self.salt = salt
        self._prefixes = [salt + i.to_bytes(4, "big") for i in range(k)]
        self._shift = 64 - address_bits

    def _address(self, prefix: bytes, value: int) -> int:
        """The SHA-256 rule, the one every method applies: the top
        ``address_bits`` bits of ``SHA256(prefix || value-bytes)``, the
        value as its minimal big-endian bytes (one byte for 0)."""
        payload = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        return int.from_bytes(sha256(prefix + payload).digest()[:8], "big") >> self._shift

    def _prefix(self, index: int) -> bytes:
        if not 0 <= index < self.k:
            raise ConfigurationError(f"hash index {index} out of range [0, {self.k})")
        return self._prefixes[index]

    def hash_one(self, guid: GuidLike, index: int) -> int:
        return self._address(self._prefix(index), _guid_value(guid))

    def rehash(self, address_value: int, index: int) -> int:
        return self._address(self._prefix(index), int(address_value))

    def hash_all(self, guid: GuidLike) -> List[int]:
        """All K functions of ``guid``."""
        value = _guid_value(guid)
        return [self._address(prefix, value) for prefix in self._prefixes]

    def hash_many(self, values: Sequence[int], index: int) -> List[int]:
        """:meth:`hash_one` over many integer values, bit for bit, with the
        range check and the salt bound once per call."""
        address, prefix = self._address, self._prefix(index)
        return [address(prefix, value) for value in values]


# splitmix64 constants — the standard finalizer from Vigna's splitmix64,
# a well-mixed bijection on 64-bit integers.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    x = (x + _SM64_GAMMA).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _SM64_M1
    x ^= x >> np.uint64(27)
    x *= _SM64_M2
    x ^= x >> np.uint64(31)
    return x


class FastHasher(HashFamily):
    """Vectorized hash family for bulk experiments (Fig. 6 scale).

    GUIDs wider than 64 bits are first folded to 64 bits by XOR-ing their
    64-bit words; the fold is uniform when the input is uniform, which is
    the regime of the storage-load experiment (GUIDs drawn at random).
    """

    def __init__(
        self,
        k: int,
        address_bits: int = ADDRESS_BITS,
        seed: int = 0x0D_AB,
    ) -> None:
        super().__init__(k, address_bits)
        self.seed = seed
        # One independent 64-bit key per function, derived deterministically.
        keys = _splitmix64(
            np.arange(1, k + 1, dtype=np.uint64) * np.uint64(seed * 2 + 1)
        )
        self._keys = keys

    @staticmethod
    def fold_guids(values: Sequence[int]) -> np.ndarray:
        """Fold arbitrary-width integer GUIDs into a uint64 array."""
        mask = (1 << 64) - 1
        folded = np.empty(len(values), dtype=np.uint64)
        for i, raw in enumerate(values):
            v = int(raw)
            acc = 0
            while True:
                acc ^= v & mask
                v >>= 64
                if v == 0:
                    break
            folded[i] = acc
        return folded

    def hash_one(self, guid: GuidLike, index: int) -> int:
        if not 0 <= index < self.k:
            raise ConfigurationError(f"hash index {index} out of range [0, {self.k})")
        folded = self.fold_guids([_guid_value(guid)])
        return int(self.hash_batch(folded, index)[0])

    def hash_batch(self, folded_guids: np.ndarray, index: int) -> np.ndarray:
        """Hash a uint64 array with function ``index``; returns address values.

        This is the bulk path: ~10^7 hashes per call complete in tens of
        milliseconds, which is what makes the Fig. 6 experiment tractable
        in pure Python.
        """
        if not 0 <= index < self.k:
            raise ConfigurationError(f"hash index {index} out of range [0, {self.k})")
        mixed = _splitmix64(folded_guids.astype(np.uint64) ^ self._keys[index])
        return (mixed >> np.uint64(64 - self.address_bits)).astype(np.uint64)

    def rehash_batch(self, address_values: np.ndarray, index: int) -> np.ndarray:
        """Vectorized counterpart of :meth:`rehash` for the IP-hole sweep."""
        return self.hash_batch(address_values.astype(np.uint64), index)
