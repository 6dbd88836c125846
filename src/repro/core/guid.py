"""Globally Unique Identifiers (GUIDs) and network addresses.

The paper assumes flat, location-independent identifiers: "A GUID is a long
bit sequence, such as a public key, that is globally unique" (§I).  We model
GUIDs as 160-bit unsigned integers (the length assumed in §IV-A) and network
addresses (NAs) as 32-bit IPv4 addresses, while keeping both widths
configurable so the scheme extends to other address families (§III-B).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Union

from ..errors import AddressError, GUIDError

#: Default GUID width in bits (paper §IV-A assumes 160-bit flat GUIDs).
GUID_BITS = 160

#: Default network-address width in bits (IPv4).
ADDRESS_BITS = 32

#: Maximum number of locators a single GUID may carry (paper §IV-A assumes
#: up to 5 NAs per entry, accounting for multi-homed devices).
MAX_LOCATORS = 5


@dataclass(frozen=True, order=True)
class GUID:
    """A flat, globally unique identifier.

    Instances are immutable and totally ordered by value so they can be used
    as dictionary keys and sorted deterministically in reports.

    Parameters
    ----------
    value:
        Non-negative integer below ``2**bits``.
    bits:
        Identifier width; defaults to :data:`GUID_BITS`.
    """

    value: int
    bits: int = GUID_BITS
    # ``hash((value, bits))``, the generated dataclass hash, computed once:
    # GUIDs key every mapping store and placement cache.
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise GUIDError(f"GUID width must be positive, got {self.bits}")
        if not 0 <= self.value < (1 << self.bits):
            raise GUIDError(
                f"GUID value {self.value:#x} out of range for {self.bits} bits"
            )
        object.__setattr__(self, "_hash", hash((self.value, self.bits)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_name(cls, name: Union[str, bytes], bits: int = GUID_BITS) -> "GUID":
        """Derive a GUID by hashing an arbitrary human-readable name.

        Mirrors self-certifying identifiers: the GUID is the (truncated)
        SHA-256 digest of the public name.
        """
        data = name.encode("utf-8") if isinstance(name, str) else name
        digest = hashlib.sha256(data).digest()
        value = int.from_bytes(digest, "big") % (1 << bits)
        return cls(value, bits)

    def to_bytes(self) -> bytes:
        """Big-endian byte representation, ``ceil(bits / 8)`` bytes long."""
        return self.value.to_bytes((self.bits + 7) // 8, "big")

    def __str__(self) -> str:
        width = (self.bits + 3) // 4
        return f"guid:{self.value:0{width}x}"

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True, order=True)
class NetworkAddress:
    """A routable locator (an IPv4 address in today's Internet).

    The paper denotes these NAs; a GUID maps to one or more of them.
    """

    value: int
    bits: int = ADDRESS_BITS

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise AddressError(f"address width must be positive, got {self.bits}")
        if not 0 <= self.value < (1 << self.bits):
            raise AddressError(
                f"address {self.value:#x} out of range for {self.bits} bits"
            )

    def to_dotted(self) -> str:
        """Dotted-quad rendering (only meaningful for 32-bit addresses)."""
        if self.bits != 32:
            raise AddressError("dotted-quad rendering requires a 32-bit address")
        octets = [(self.value >> shift) & 0xFF for shift in (24, 16, 8, 0)]
        return ".".join(str(o) for o in octets)

    def xor_distance(self, other: "NetworkAddress") -> int:
        """The paper's *IP distance* metric (§III-B).

        ``IP distance[A, B] = sum_i |A_i - B_i| * 2**i`` over bit positions,
        which for binary digits is exactly the XOR metric ``A ^ B``.
        """
        if self.bits != other.bits:
            raise AddressError("cannot compare addresses of different widths")
        return self.value ^ other.value

    def __str__(self) -> str:
        if self.bits == 32:
            return self.to_dotted()
        width = (self.bits + 3) // 4
        return f"na:{self.value:0{width}x}"

    def __int__(self) -> int:
        return self.value


def guid_like(value: Union[int, str, GUID], bits: Optional[int] = None) -> GUID:
    """Coerce ints, names or GUIDs into a :class:`GUID`.

    Accepting loose inputs at the public API keeps example code short while
    the internals always operate on proper :class:`GUID` instances.
    """
    if isinstance(value, GUID):
        return value
    if isinstance(value, int):
        return GUID(value, bits or GUID_BITS)
    if isinstance(value, str):
        return GUID.from_name(value, bits or GUID_BITS)
    raise GUIDError(f"cannot interpret {value!r} as a GUID")
