"""Address parsing and brute-force address oracles for the tests.

The program never parses dotted-quad text or CIDR notation, draws a
random GUID or enumerates a block; the tests use these helpers to write
fixtures readably and to check the table's LPM and nearest-prefix
answers against definitions.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

from repro.bgp.prefix import Prefix
from repro.core.guid import ADDRESS_BITS, GUID, GUID_BITS, NetworkAddress
from repro.errors import AddressError


def from_dotted(text: str) -> NetworkAddress:
    """Parse dotted-quad IPv4 notation, e.g. ``"67.10.12.1"``."""
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted-quad IPv4 address: {text!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError as exc:
            raise AddressError(f"bad octet {part!r} in {text!r}") from exc
        if not 0 <= octet <= 255:
            raise AddressError(f"octet {octet} out of range in {text!r}")
        value = (value << 8) | octet
    return NetworkAddress(value)


def from_cidr(text: str, bits: int = ADDRESS_BITS) -> Prefix:
    """Parse ``"a.b.c.d/len"`` (or bare ``"a.b.c.d"`` as a host route)."""
    if "/" in text:
        addr_part, _, len_part = text.partition("/")
        try:
            length = int(len_part)
        except ValueError as exc:
            raise AddressError(f"bad prefix length in {text!r}") from exc
    else:
        addr_part, length = text, bits
    address = from_dotted(addr_part)
    span = 1 << (bits - length) if length < bits else 1
    return Prefix(address.value & ~(span - 1) & ((1 << bits) - 1), length, bits)


def random_guid(rng: np.random.Generator, bits: int = GUID_BITS) -> GUID:
    """Draw a uniformly random GUID from ``rng``."""
    words = (bits + 63) // 64
    value = 0
    for _ in range(words):
        value = (value << 64) | int(rng.integers(0, 1 << 63) << 1 | rng.integers(0, 2))
    return GUID(value % (1 << bits), bits)


def iter_address_block(base: int, prefix_len: int, bits: int = ADDRESS_BITS) -> Iterator[int]:
    """Yield every address value inside the block ``base/prefix_len``.

    For small blocks only; a /8 has 2**24 members.
    """
    if not 0 <= prefix_len <= bits:
        raise AddressError(f"prefix length {prefix_len} out of range")
    span = 1 << (bits - prefix_len)
    start = base & ~(span - 1) & ((1 << bits) - 1)
    for offset in range(span):
        yield start + offset


def xor_distance_to(prefix: Prefix, address: Union[int, NetworkAddress]) -> int:
    """Minimum IP (XOR) distance from ``address`` to any address ``prefix``
    covers.

    §III-B defines the distance between an address and a block as the
    minimum pairwise distance.  Under the XOR metric the host bits can
    always be matched exactly, so the minimum is the XOR of the prefix
    bits alone, shifted back into position.
    """
    value = int(address)
    if prefix.contains(value):
        return 0
    host_bits = prefix.bits - prefix.length
    return ((value >> host_bits) ^ (prefix.base >> host_bits)) << host_bits
