"""Unit and property tests for prefixes and announcements."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp.prefix import Announcement, Prefix
from repro.errors import AddressError

from .addressing import from_cidr, from_dotted, iter_address_block, xor_distance_to


class TestPrefixValidation:
    def test_basic(self):
        p = Prefix(0x0A000000, 8)
        assert p.span == 1 << 24
        assert p.first == 0x0A000000
        assert p.last == 0x0AFFFFFF

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix(0x0A000001, 8)

    def test_bad_length_rejected(self):
        with pytest.raises(AddressError):
            Prefix(0, 33)
        with pytest.raises(AddressError):
            Prefix(0, -1)

    def test_zero_length_covers_everything(self):
        p = Prefix(0, 0)
        assert p.span == 1 << 32
        assert p.contains(0) and p.contains(2**32 - 1)

    def test_from_cidr(self):
        p = from_cidr("67.10.0.0/16")
        assert p == Prefix(from_dotted("67.10.0.0").value, 16)
        assert str(p) == "67.10.0.0/16"

    def test_from_cidr_masks_host_bits(self):
        assert from_cidr("67.10.12.1/16") == from_cidr("67.10.0.0/16")

    def test_from_cidr_bare_address_is_host_route(self):
        assert from_cidr("1.2.3.4").length == 32

    def test_from_cidr_bad_length(self):
        with pytest.raises(AddressError):
            from_cidr("1.2.3.4/abc")


class TestContainment:
    def test_contains_address(self):
        p = from_cidr("10.0.0.0/8")
        assert p.contains(from_dotted("10.200.3.4"))
        assert not p.contains(from_dotted("11.0.0.0"))

    def test_contains_prefix(self):
        outer = from_cidr("10.0.0.0/8")
        inner = from_cidr("10.5.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_fraction_of_space(self):
        assert from_cidr("10.0.0.0/8").fraction_of_space() == pytest.approx(
            1 / 256
        )


class TestXorDistanceToBlock:
    def test_inside_is_zero(self):
        p = from_cidr("10.0.0.0/8")
        assert xor_distance_to(p, from_dotted("10.9.9.9")) == 0

    def test_adjacent_block(self):
        # 0b10xxxx vs address 0b11...: top differing bit dominates.
        p = Prefix(0b100000, 2, bits=6)
        assert xor_distance_to(p, 0b110101) == 0b010000

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=255),
    )
    def test_matches_brute_force_min(self, base, length, address):
        # 8-bit space keeps exhaustive enumeration cheap.
        span = 1 << (8 - length)
        base &= ~(span - 1) & 0xFF
        p = Prefix(base, length, bits=8)
        brute = min(address ^ member for member in iter_address_block(base, length, 8))
        assert xor_distance_to(p, address) == brute


class TestAnnouncement:
    def test_ordering_groups_by_prefix(self):
        a = Announcement(from_cidr("10.0.0.0/8"), 7)
        b = Announcement(from_cidr("11.0.0.0/8"), 3)
        assert a < b

    def test_negative_asn_rejected(self):
        with pytest.raises(AddressError):
            Announcement(Prefix(0, 0), -1)

    def test_str(self):
        a = Announcement(from_cidr("10.0.0.0/8"), 7)
        assert str(a) == "10.0.0.0/8 via AS7"
