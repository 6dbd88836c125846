"""Unit and property tests for GUIDs and network addresses."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.guid import (
    ADDRESS_BITS,
    GUID,
    GUID_BITS,
    NetworkAddress,
    guid_like,
)
from repro.errors import AddressError, GUIDError

from .addressing import from_dotted, iter_address_block, random_guid


class TestGUID:
    def test_value_and_bits(self):
        g = GUID(42)
        assert g.value == 42
        assert g.bits == GUID_BITS
        assert int(g) == 42

    def test_rejects_negative(self):
        with pytest.raises(GUIDError):
            GUID(-1)

    def test_rejects_too_wide(self):
        with pytest.raises(GUIDError):
            GUID(1 << GUID_BITS)

    def test_rejects_zero_width(self):
        with pytest.raises(GUIDError):
            GUID(0, bits=0)

    def test_boundary_value_accepted(self):
        assert GUID((1 << GUID_BITS) - 1).value == (1 << GUID_BITS) - 1

    def test_from_name_deterministic(self):
        assert GUID.from_name("phone") == GUID.from_name("phone")
        assert GUID.from_name("phone") != GUID.from_name("laptop")

    def test_from_name_accepts_bytes(self):
        assert GUID.from_name(b"phone") == GUID.from_name("phone")

    def test_from_name_respects_bits(self):
        g = GUID.from_name("phone", bits=32)
        assert g.bits == 32
        assert g.value < (1 << 32)

    def test_random_within_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_guid(rng)
            assert 0 <= g.value < (1 << GUID_BITS)

    def test_random_is_seed_deterministic(self):
        a = random_guid(np.random.default_rng(5))
        b = random_guid(np.random.default_rng(5))
        assert a == b

    def test_ordering_and_hashing(self):
        a, b = GUID(1), GUID(2)
        assert a < b
        assert len({a, GUID(1)}) == 1

    def test_hash_is_the_field_tuple_hash(self):
        # The cached hash is the one the dataclass would compute, so every
        # dict and set of GUIDs keeps its order.
        for value, bits in ((0, GUID_BITS), (42, GUID_BITS), (5, 8),
                            ((1 << GUID_BITS) - 1, GUID_BITS)):
            assert hash(GUID(value, bits)) == hash((value, bits))
        assert GUID(7) == GUID(7) and repr(GUID(7)) == "GUID(value=7, bits=160)"

    def test_set_iteration_order_pinned(self):
        guids = {GUID(v) for v in (5, 3, 9, 1, 1000, 77)}
        assert [g.value for g in guids] == [77, 9, 1000, 5, 3, 1]

    def test_to_bytes_roundtrip(self):
        g = GUID.from_name("x")
        assert int.from_bytes(g.to_bytes(), "big") == g.value

    def test_str_is_hex(self):
        assert str(GUID(0xAB, bits=8)) == "guid:ab"

    @given(st.integers(min_value=0, max_value=(1 << GUID_BITS) - 1))
    def test_any_in_range_value_accepted(self, value):
        assert GUID(value).value == value


class TestNetworkAddress:
    def test_dotted_roundtrip(self):
        na = from_dotted("67.10.12.1")
        assert na.to_dotted() == "67.10.12.1"
        assert str(na) == "67.10.12.1"

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "a.b.c.d", "256.0.0.1", ""])
    def test_bad_dotted_rejected(self, bad):
        with pytest.raises(AddressError):
            from_dotted(bad)

    def test_out_of_range_rejected(self):
        with pytest.raises(AddressError):
            NetworkAddress(1 << 32)
        with pytest.raises(AddressError):
            NetworkAddress(-1)

    def test_xor_distance_is_xor(self):
        a = NetworkAddress(0b1100)
        b = NetworkAddress(0b1010)
        assert a.xor_distance(b) == 0b0110

    def test_xor_distance_width_mismatch(self):
        with pytest.raises(AddressError):
            NetworkAddress(1, bits=32).xor_distance(NetworkAddress(1, bits=16))

    def test_dotted_requires_32_bits(self):
        with pytest.raises(AddressError):
            NetworkAddress(1, bits=16).to_dotted()

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_xor_distance_metric_laws(self, x, y):
        a, b = NetworkAddress(x), NetworkAddress(y)
        assert a.xor_distance(b) == b.xor_distance(a)
        assert a.xor_distance(a) == 0
        # §III-B definition: sum over bit positions of |A_i - B_i| * 2^i.
        manual = sum(
            abs(((x >> i) & 1) - ((y >> i) & 1)) * (1 << i) for i in range(32)
        )
        assert a.xor_distance(b) == manual


class TestHelpers:
    def test_iter_address_block(self):
        # 0b101011 masked to a /4 block in a 6-bit space starts at 0b101000.
        block = list(iter_address_block(0b101011, prefix_len=4, bits=6))
        assert block == [0b101000 + i for i in range(4)]

    def test_iter_address_block_host_route(self):
        assert list(iter_address_block(9, prefix_len=32)) == [9]

    def test_iter_address_block_bad_length(self):
        with pytest.raises(AddressError):
            list(iter_address_block(0, prefix_len=33))

    def test_guid_like_coercions(self):
        assert guid_like(GUID(5)) == GUID(5)
        assert guid_like(5) == GUID(5)
        assert guid_like("phone") == GUID.from_name("phone")

    def test_guid_like_rejects_junk(self):
        with pytest.raises(GUIDError):
            guid_like(3.14)
