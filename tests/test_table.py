"""Unit tests for the global BGP prefix table."""

import numpy as np
import pytest

from repro.bgp.prefix import Announcement, Prefix
from repro.bgp.table import GlobalPrefixTable
from repro.core.guid import NetworkAddress
from repro.errors import AddressError, PrefixTableError

from .addressing import from_cidr, from_dotted


def ann(cidr: str, asn: int) -> Announcement:
    return Announcement(from_cidr(cidr), asn)


@pytest.fixture
def small_table():
    return GlobalPrefixTable(
        [
            ann("10.0.0.0/8", 1),
            ann("10.5.0.0/16", 2),
            ann("67.10.0.0/16", 55),
            ann("44.0.0.0/8", 101),
        ]
    )


class TestMutation:
    def test_announce_and_contains(self, small_table):
        assert from_cidr("10.0.0.0/8") in small_table
        assert len(small_table) == 4

    def test_withdraw(self, small_table):
        removed = small_table.withdraw(from_cidr("44.0.0.0/8"))
        assert removed.asn == 101
        assert len(small_table) == 3
        assert small_table.prefixes_of(101) == []

    def test_withdraw_unknown_raises(self, small_table):
        with pytest.raises(PrefixTableError):
            small_table.withdraw(from_cidr("99.0.0.0/8"))

    def test_reannounce_moves_origin(self, small_table):
        small_table.announce(ann("44.0.0.0/8", 7))
        assert small_table.owner_asn(from_cidr("44.1.0.0/16").base) == 7
        assert small_table.prefixes_of(101) == []
        assert 101 not in small_table.asns()


class TestQueries:
    def test_lpm_most_specific(self, small_table):
        assert small_table.owner_asn(from_cidr("10.5.1.0/24").base) == 2
        assert small_table.owner_asn(from_cidr("10.6.0.0/16").base) == 1

    def test_hole_is_none(self, small_table):
        assert small_table.resolve(0) is None
        assert small_table.owner_asn(0) is None

    def test_nearest(self, small_table):
        found, dist = small_table.nearest(from_cidr("10.4.0.0/16").base)
        assert found.asn in (1, 2)
        assert dist == 0  # inside 10/8

    def test_prefixes_of_sorted(self, small_table):
        small_table.announce(ann("9.0.0.0/8", 1))
        prefixes = small_table.prefixes_of(1)
        assert prefixes == sorted(prefixes)
        assert len(prefixes) == 2

    def test_asns(self, small_table):
        assert small_table.asns() == [1, 2, 55, 101]

    def test_announcement_ratio_counts_overlap_once(self, small_table):
        # 10/8 (includes 10.5/16) + 67.10/16 + 44/8 = 2*2^24 + 2^16.
        expected = (2 * (1 << 24) + (1 << 16)) / (1 << 32)
        assert small_table.announcement_ratio() == pytest.approx(expected)

    def test_representative_address(self, small_table):
        na = small_table.representative_address(55)
        assert isinstance(na, NetworkAddress)
        assert small_table.owner_asn(na) == 55

    def test_representative_address_unknown_as(self, small_table):
        with pytest.raises(PrefixTableError):
            small_table.representative_address(999)

    def test_iteration(self, small_table):
        assert {a.asn for a in small_table} == {1, 2, 55, 101}


class TestCopy:
    def test_copy_is_independent(self, small_table):
        clone = small_table.copy()
        clone.withdraw(from_cidr("44.0.0.0/8"))
        assert from_cidr("44.0.0.0/8") in small_table
        assert from_cidr("44.0.0.0/8") not in clone

    def test_interval_index_snapshot(self, small_table):
        idx = small_table.build_interval_index()
        assert idx.announced_fraction() == pytest.approx(
            small_table.announcement_ratio()
        )
        # Snapshot does not follow later withdrawals.
        small_table.withdraw(from_cidr("44.0.0.0/8"))
        assert idx.lookup_one(from_cidr("44.1.0.0/16").base) == 101


class TestGeneration:
    def test_counts_only_announce_and_withdraw(self, small_table):
        start = small_table.generation
        # Queries, snapshots and copies leave it alone.
        small_table.resolve(from_cidr("10.5.1.0/24").base)
        small_table.nearest(0)
        small_table.prefixes_of(1)
        small_table.asns()
        small_table.announcement_ratio()
        small_table.representative_address(55)
        small_table.build_interval_index()
        small_table.copy()
        list(small_table)
        assert small_table.generation == start

        small_table.announce(ann("9.0.0.0/8", 1))
        assert small_table.generation == start + 1
        small_table.withdraw(from_cidr("9.0.0.0/8"))
        assert small_table.generation == start + 2
        small_table.announce(ann("44.0.0.0/8", 7))  # re-origin
        assert small_table.generation == start + 3

    def test_failed_withdraw_leaves_it(self, small_table):
        start = small_table.generation
        with pytest.raises(PrefixTableError):
            small_table.withdraw(from_cidr("99.0.0.0/8"))
        assert small_table.generation == start


class TestRepresentativeAddressCache:
    def test_one_address_per_as_until_a_mutation(self, small_table):
        first = small_table.representative_address(55)
        assert small_table.representative_address(55) is first
        small_table.announce(ann("67.0.0.0/16", 55))
        moved = small_table.representative_address(55)
        assert moved is not first
        assert moved == from_dotted("67.0.0.0")

    def test_tracks_lowest_prefix_through_churn(self):
        rng = np.random.default_rng(5)
        asns = [1, 2, 3, 4]
        # /16 blocks inside 10/8 and /24s inside them: covering and
        # more-specific prefixes of the same and of different ASs.
        pool = [Prefix((10 << 24) | (b << 16), 16) for b in range(12)]
        pool += [Prefix((10 << 24) | (b << 16) | (c << 8), 24)
                 for b in range(4) for c in range(3)]
        table = GlobalPrefixTable()
        for step in range(600):
            prefix = pool[int(rng.integers(len(pool)))]
            if prefix in table and rng.random() < 0.4:
                table.withdraw(prefix)
            else:  # announce, or re-originate from another AS
                table.announce(Announcement(prefix, asns[int(rng.integers(4))]))
            for asn in asns:
                owned = table.prefixes_of(asn)
                if owned:
                    expected = NetworkAddress(owned[0].base, table.bits)
                    assert table.representative_address(asn) == expected, step
                else:
                    with pytest.raises(PrefixTableError):
                        table.representative_address(asn)


def table_arrays(*rows):
    """``(bases, lengths, asns)`` int64 arrays of ``(cidr, asn)`` rows."""
    prefixes = [(from_cidr(cidr), asn) for cidr, asn in rows]
    return (
        np.array([p.base for p, _ in prefixes], dtype=np.int64),
        np.array([p.length for p, _ in prefixes], dtype=np.int64),
        np.array([asn for _, asn in prefixes], dtype=np.int64),
    )


class TestFromArrays:
    ROWS = (("44.0.0.0/8", 101), ("10.5.0.0/16", 2), ("10.0.0.0/8", 1),
            ("67.10.0.0/16", 55))

    def test_equals_announcing_one_by_one(self, small_table):
        table = GlobalPrefixTable.from_arrays(*table_arrays(*self.ROWS))
        assert list(table) == list(small_table)
        assert table.generation == small_table.generation == 4
        bases, lengths, asns = table.prefix_arrays()
        assert bases.dtype == np.uint64 and lengths.dtype == asns.dtype == np.int64
        assert not bases.flags.writeable
        # Sorted rows are stored as they come; the caller's arrays are copied.
        ordered = [np.array(a) for a in table.prefix_arrays()]
        again = GlobalPrefixTable.from_arrays(*ordered)
        ordered[2][0] = 999
        assert list(again) == list(table)

    def test_empty(self):
        table = GlobalPrefixTable.from_arrays(*table_arrays())
        assert len(table) == 0 and table.generation == 0 and table.asns() == []

    @pytest.mark.parametrize("base, length, asn", [
        (0, 33, 1),             # length above the width
        (0, -1, 1),             # negative length
        (1 << 32, 8, 1),        # base out of range
        (-(1 << 24), 8, 1),     # negative base
        (10 << 24 | 1, 8, 1),   # host bits set under /8
        (10 << 24, 8, -1),      # negative AS number
    ])
    def test_rejects_what_a_prefix_or_announcement_rejects(self, base, length, asn):
        with pytest.raises(AddressError):
            Announcement(Prefix(base, length), asn)
        arrays = table_arrays(*self.ROWS)
        for column, value in enumerate((base, length, asn)):
            arrays[column][2] = value
        with pytest.raises(AddressError):
            GlobalPrefixTable.from_arrays(*arrays)

    @pytest.mark.parametrize("rows", [
        ROWS + (("10.0.0.0/8", 7),),           # out of order
        (("9.0.0.0/8", 1), ("9.0.0.0/8", 1)),  # in order
    ])
    def test_rejects_a_repeated_prefix(self, rows):
        with pytest.raises(PrefixTableError, match="distinct"):
            GlobalPrefixTable.from_arrays(*table_arrays(*rows))

    def test_rejects_ragged_arrays(self):
        bases, lengths, asns = table_arrays(*self.ROWS)
        with pytest.raises(PrefixTableError):
            GlobalPrefixTable.from_arrays(bases, lengths[:-1], asns)
