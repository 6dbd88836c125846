"""Tests for the synthetic prefix-table generator."""

import numpy as np
import pytest

from repro.bgp.allocation import (
    AllocationConfig,
    BuddyAllocator,
    generate_global_prefix_table,
)
from repro.errors import ConfigurationError


class TestBuddyAllocator:
    def test_allocations_are_disjoint_and_aligned(self):
        rng = np.random.default_rng(0)
        allocator = BuddyAllocator(bits=10, rng=rng)
        seen = set()
        for length in [2, 3, 3, 4, 5, 5, 5, 6]:
            base = allocator.allocate(length)
            assert base is not None
            span = 1 << (10 - length)
            assert base % span == 0, "block must be naturally aligned"
            block = set(range(base, base + span))
            assert not (block & seen), "blocks must be disjoint"
            seen |= block

    def test_free_span_accounting(self):
        allocator = BuddyAllocator(bits=8, rng=np.random.default_rng(0))
        assert allocator.free_span() == 256
        allocator.allocate(2)  # 64 addresses
        assert allocator.free_span() == 192

    def test_exhaustion_returns_none(self):
        allocator = BuddyAllocator(bits=4, rng=np.random.default_rng(0))
        assert allocator.allocate(0) is not None  # whole space
        assert allocator.allocate(4) is None

    def test_bad_length(self):
        allocator = BuddyAllocator(bits=4, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            allocator.allocate(5)


class TestGeneration:
    def test_hits_target_ratio(self):
        table = generate_global_prefix_table(
            list(range(1, 101)), AllocationConfig(prefixes_per_as=5), seed=0
        )
        assert table.announcement_ratio() == pytest.approx(0.52, abs=0.01)

    def test_every_as_announces(self):
        asns = list(range(1, 81))
        table = generate_global_prefix_table(
            asns, AllocationConfig(prefixes_per_as=4), seed=1
        )
        assert set(table.asns()) == set(asns)

    def test_deterministic_in_seed(self):
        a = generate_global_prefix_table(list(range(1, 31)), seed=5)
        b = generate_global_prefix_table(list(range(1, 31)), seed=5)
        assert sorted(a) == sorted(b)

    def test_different_seeds_differ(self):
        a = generate_global_prefix_table(list(range(1, 31)), seed=5)
        b = generate_global_prefix_table(list(range(1, 31)), seed=6)
        assert sorted(a) != sorted(b)

    def test_prefixes_are_disjoint(self):
        table = generate_global_prefix_table(
            list(range(1, 41)), AllocationConfig(prefixes_per_as=4), seed=2
        )
        total_span = sum(a.prefix.span for a in table)
        # Disjoint blocks: the union equals the sum of spans.
        assert table.announced_span() == total_span

    def test_custom_ratio(self):
        table = generate_global_prefix_table(
            list(range(1, 101)),
            AllocationConfig(target_ratio=0.3, prefixes_per_as=5),
            seed=0,
        )
        assert table.announcement_ratio() == pytest.approx(0.3, abs=0.01)

    def test_as_weights_bias_counts(self):
        asns = list(range(1, 61))
        heavy = {1: 50.0}
        table = generate_global_prefix_table(
            asns,
            AllocationConfig(prefixes_per_as=5),
            seed=3,
            as_weights=heavy,
        )
        counts = {asn: len(table.prefixes_of(asn)) for asn in asns}
        mean_others = np.mean([c for a, c in counts.items() if a != 1])
        assert counts[1] > 3 * mean_others

    def test_empty_asns_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_global_prefix_table([], seed=0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            AllocationConfig(target_ratio=1.5).validate()
        with pytest.raises(ConfigurationError):
            AllocationConfig(prefixes_per_as=0).validate()
        with pytest.raises(ConfigurationError):
            AllocationConfig(length_mix={}).validate()
        with pytest.raises(ConfigurationError):
            AllocationConfig(length_mix={40: 1.0}).validate()

    @pytest.mark.parametrize(
        "fields, seed",
        [
            # Reached the every-AS pass: "block length 24 out of range".
            (dict(bits=16, length_mix={4: 0.2, 6: 0.3, 8: 0.5}, prefixes_per_as=3), 7),
            # Reached the /16 ratio filler: "negative shift count".
            (dict(bits=12, length_mix={8: 0.5, 10: 0.5}, prefixes_per_as=1), 0),
        ],
    )
    def test_address_space_narrower_than_24_bits_rejected(self, fields, seed):
        config = AllocationConfig(**fields)
        with pytest.raises(ConfigurationError, match="bits must be >= 24"):
            config.validate()
        with pytest.raises(ConfigurationError, match="bits must be >= 24"):
            generate_global_prefix_table(list(range(1, 51)), config, seed=seed)

    def test_heavy_tail_in_per_as_span(self):
        table = generate_global_prefix_table(
            list(range(1, 201)), AllocationConfig(prefixes_per_as=8), seed=4
        )
        idx = table.build_interval_index()
        spans = np.array(sorted(idx.effective_span_by_asn().values()))
        # Top 10% of ASs should own the majority of announced space.
        top_decile = spans[-len(spans) // 10 :].sum()
        assert top_decile / spans.sum() > 0.5
