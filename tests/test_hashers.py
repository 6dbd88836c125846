"""Tests for the consistent hash families."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.guid import GUID
from repro.errors import ConfigurationError
from repro.hashing.hashers import FastHasher, Sha256Hasher


@pytest.fixture(params=["sha", "fast"])
def hasher(request):
    if request.param == "sha":
        return Sha256Hasher(k=5)
    return FastHasher(k=5)


class TestHashFamilyContract:
    def test_determinism(self, hasher):
        g = GUID.from_name("device")
        assert hasher.hash_all(g) == hasher.hash_all(g)

    def test_output_in_address_space(self, hasher):
        for name in ("a", "b", "c", "d"):
            for value in hasher.hash_all(GUID.from_name(name)):
                assert 0 <= value < 2**32

    def test_functions_are_distinct(self, hasher):
        # The K functions must disagree on most inputs (independence).
        disagreements = 0
        for i in range(50):
            values = hasher.hash_all(GUID.from_name(f"g{i}"))
            if len(set(values)) == len(values):
                disagreements += 1
        assert disagreements > 40

    def test_index_out_of_range(self, hasher):
        with pytest.raises(ConfigurationError):
            hasher.hash_one(GUID(1), 5)
        with pytest.raises(ConfigurationError):
            hasher.hash_one(GUID(1), -1)

    def test_accepts_raw_ints(self, hasher):
        assert hasher.hash_one(12345, 0) == hasher.hash_one(GUID(12345), 0)

    def test_rehash_changes_value_usually(self, hasher):
        changed = 0
        for i in range(50):
            v = hasher.hash_one(GUID.from_name(f"r{i}"), 0)
            if hasher.rehash(v, 0) != v:
                changed += 1
        assert changed >= 49

    def test_k_validation(self):
        with pytest.raises(ConfigurationError):
            Sha256Hasher(k=0)
        with pytest.raises(ConfigurationError):
            FastHasher(k=0)

    def test_uniformity_coarse(self, hasher):
        # Bucket 4000 hashes into 16 bins; expect no wild imbalance.
        values = [
            hasher.hash_one(GUID.from_name(f"u{i}"), 0) >> 28 for i in range(4000)
        ]
        counts = np.bincount(values, minlength=16)
        assert counts.min() > 150  # expected 250 per bin
        assert counts.max() < 400


class TestSha256Hasher:
    def test_salt_changes_output(self):
        a = Sha256Hasher(k=1, salt=b"one")
        b = Sha256Hasher(k=1, salt=b"two")
        assert a.hash_one(GUID(7), 0) != b.hash_one(GUID(7), 0)

    def test_custom_address_bits(self):
        h = Sha256Hasher(k=1, address_bits=8)
        for i in range(100):
            assert 0 <= h.hash_one(GUID(i), 0) < 256

    @pytest.mark.parametrize("address_bits", [1, 8, 32, 64])
    def test_hash_many_matches_definition(self, address_bits):
        # Function i is the top address_bits of SHA256(salt || i || value),
        # the value as its minimal big-endian bytes (one byte for 0).
        h = Sha256Hasher(k=5, address_bits=address_bits, salt=b"s")
        values = (
            [0, 1, 255, 256, 2**32 - 1]
            + [GUID.from_name(f"g{i}").value for i in range(50)]
            + [2**160 - 1]
        )
        for index in range(h.k):
            expected = []
            for v in values:
                payload = v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")
                digest = hashlib.sha256(b"s" + index.to_bytes(4, "big") + payload)
                word = int.from_bytes(digest.digest()[:8], "big")
                expected.append(word >> (64 - address_bits))
            assert h.hash_many(values, index) == expected
            assert [h.hash_one(v, index) for v in values] == expected
            for v, want in zip(values, expected):
                if v < 2**64:  # an address may come as a numpy integer
                    assert h.rehash(np.uint64(v), index) == want
        for v in values:
            assert h.hash_all(v) == [h.hash_one(v, i) for i in range(h.k)]

    def test_hash_many_index_range(self):
        h = Sha256Hasher(k=2)
        assert h.hash_many([], 1) == []
        for index in (-1, 2):
            with pytest.raises(ConfigurationError):
                h.hash_many([1], index)


class TestFastHasher:
    def test_batch_matches_scalar(self):
        h = FastHasher(k=3)
        values = [GUID.from_name(f"x{i}").value for i in range(64)]
        folded = h.fold_guids(values)
        for index in range(3):
            batch = h.hash_batch(folded, index)
            for j, value in enumerate(values):
                assert int(batch[j]) == h.hash_one(value, index)

    def test_fold_guids_wide_values(self):
        wide = (1 << 159) | (1 << 70) | 5
        folded = FastHasher.fold_guids([wide])
        expected = ((wide >> 128) ^ (wide >> 64) ^ wide) & ((1 << 64) - 1)
        assert int(folded[0]) == expected

    def test_rehash_batch_matches_scalar_rehash(self):
        h = FastHasher(k=2)
        addresses = np.arange(10, dtype=np.uint64)
        rehashes = h.rehash_batch(addresses, 1)
        for addr, re in zip(addresses.tolist(), rehashes.tolist()):
            assert re == h.rehash(addr, 1)

    def test_seed_changes_family(self):
        a = FastHasher(k=1, seed=1)
        b = FastHasher(k=1, seed=2)
        assert a.hash_one(GUID(7), 0) != b.hash_one(GUID(7), 0)

    def test_batch_index_validation(self):
        h = FastHasher(k=2)
        with pytest.raises(ConfigurationError):
            h.hash_batch(np.zeros(1, dtype=np.uint64), 2)

    @given(st.integers(min_value=0, max_value=(1 << 160) - 1))
    @settings(max_examples=50)
    def test_scalar_path_in_range(self, value):
        h = FastHasher(k=1)
        assert 0 <= h.hash_one(value, 0) < 2**32
