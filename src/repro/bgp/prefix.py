"""IP prefixes and announcements.

A :class:`Prefix` is a CIDR block ``base/length``; an :class:`Announcement`
binds a prefix to the AS that originates it in BGP.  The global prefix table
(:mod:`repro.bgp.table`) is a set of announcements, mirroring the DFZ
snapshot the paper takes from APNIC's DIX-IE router (§IV-B.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..core.guid import ADDRESS_BITS, NetworkAddress
from ..errors import AddressError


@dataclass(frozen=True, order=True)
class Prefix:
    """A CIDR address block.

    Ordering is (base, length) so sorted prefix lists group covering blocks
    before their more-specifics, which the interval index relies on.

    Parameters
    ----------
    base:
        Network address of the block; host bits must be zero.
    length:
        Prefix length in [0, bits].
    bits:
        Address-family width, default IPv4 (32).
    """

    base: int
    length: int
    bits: int = ADDRESS_BITS

    def __post_init__(self) -> None:
        if not 0 <= self.length <= self.bits:
            raise AddressError(
                f"prefix length {self.length} out of range for {self.bits}-bit space"
            )
        if not 0 <= self.base < (1 << self.bits):
            raise AddressError(f"prefix base {self.base:#x} out of range")
        if self.base & (self.span - 1):
            raise AddressError(
                f"prefix base {self.base:#x}/{self.length} has non-zero host bits"
            )

    @property
    def span(self) -> int:
        """Number of addresses covered: ``2**(bits - length)``."""
        return 1 << (self.bits - self.length)

    @property
    def first(self) -> int:
        """Lowest covered address value."""
        return self.base

    @property
    def last(self) -> int:
        """Highest covered address value."""
        return self.base + self.span - 1

    def contains(self, address: Union[int, NetworkAddress]) -> bool:
        """Whether the block covers ``address``."""
        value = int(address)
        return self.first <= value <= self.last

    def contains_prefix(self, other: "Prefix") -> bool:
        """Whether this block covers all of ``other`` (is a supernet)."""
        return self.first <= other.first and other.last <= self.last

    def fraction_of_space(self) -> float:
        """Fraction of the full address space this block covers."""
        return self.span / float(1 << self.bits)

    def __str__(self) -> str:
        if self.bits == 32:
            return f"{NetworkAddress(self.base).to_dotted()}/{self.length}"
        return f"{self.base:#x}/{self.length}"


@dataclass(frozen=True, order=True)
class Announcement:
    """A BGP origination: ``prefix`` is announced by AS ``asn``."""

    prefix: Prefix
    asn: int

    def __post_init__(self) -> None:
        if self.asn < 0:
            raise AddressError(f"AS number must be non-negative, got {self.asn}")

    def __str__(self) -> str:
        return f"{self.prefix} via AS{self.asn}"
