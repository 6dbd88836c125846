"""The exact-draw helpers equal the numpy calls they stand for.

Every test runs the numpy call on one generator and the helper on a twin
with the same seed, then checks the values and the final bit-generator
state: a helper that consumed one draw more or less would shift every
later draw of the substrate generators.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.allocation import DEFAULT_LENGTH_MIX
from repro.draws import choice_cdf, integer_sampler, weighted_choice, weighted_sample

seeds = st.integers(min_value=0, max_value=2**63)

#: Bounds from the smallest to the 32-bit limit: numpy's Lemire rejection
#: redraws about 30% of the time near 3e9, and ``2**32`` and above take
#: numpy's own path.
bounds = st.one_of(
    st.integers(1, 3),
    st.integers(1, 1 << 16),
    st.just(3_000_000_000),
    st.integers((1 << 32) - 3, (1 << 32) + 3),
)

#: Weights with zeros among them, as a probability vector.
weight_lists = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=25
).filter(lambda ws: sum(ws) > 0)


def twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_state(ref, fast):
    assert fast.bit_generator.state == ref.bit_generator.state


def probabilities(weights):
    p = np.asarray(weights, dtype=float)
    return p / p.sum()


class TestIntegerSampler:
    @given(seeds, st.lists(bounds, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_equals_integers_between_other_draws(self, seed, ns):
        # random() and normal() draw 64 bits and leave a buffered 32-bit
        # half in place: the helper must share that buffer with numpy.
        ref, fast = twins(seed)
        draw = integer_sampler(fast)
        for i, n in enumerate(ns):
            if i % 3 == 1:
                assert fast.random() == ref.random()
            elif i % 3 == 2:
                assert fast.normal() == ref.normal()
            assert draw(n) == int(ref.integers(0, n))
        assert_same_state(ref, fast)

    def test_rejection_near_two_to_the_32(self):
        ref, fast = twins(5)
        draw = integer_sampler(fast)
        got = [draw(3_000_000_000) for _ in range(200)]
        assert got == [int(ref.integers(0, 3_000_000_000)) for _ in range(200)]
        assert_same_state(ref, fast)
        # Some values took more than one 32-bit word: 200 single-word
        # draws leave the generator elsewhere.
        plain = np.random.default_rng(5)
        for _ in range(200):
            plain.integers(0, 1 << 32)
        assert plain.bit_generator.state != fast.bit_generator.state

    def test_one_draws_nothing(self):
        ref, fast = twins(9)
        draw = integer_sampler(fast)
        assert draw(1) == 0 and draw(1) == 0
        assert_same_state(ref, fast)
        assert draw(7) == int(ref.integers(0, 7))

    def test_empty_range_raises_like_numpy(self):
        draw = integer_sampler(np.random.default_rng(0))
        for n in (0, -3):
            with pytest.raises(ValueError):
                draw(n)


class TestWeightedChoice:
    @given(seeds, weight_lists)
    @settings(max_examples=150, deadline=None)
    def test_equals_choice(self, seed, weights):
        p = probabilities(weights)
        ref, fast = twins(seed)
        for _ in range(5):
            assert weighted_choice(fast, p) == int(ref.choice(len(p), p=p))
        assert_same_state(ref, fast)


class TestWeightedSample:
    @given(seeds, weight_lists, st.integers(0, 25))
    @settings(max_examples=200, deadline=None)
    def test_equals_choice_without_replacement(self, seed, weights, k):
        p = probabilities(weights)
        k = min(k % 4 if k < 20 else k, len(p))  # mostly k <= 3, some large
        ref, fast = twins(seed)
        try:
            want = ref.choice(len(p), size=k, replace=False, p=p).tolist()
        except ValueError:
            with pytest.raises(ValueError, match="Fewer non-zero entries"):
                weighted_sample(fast, p, k)
        else:
            assert weighted_sample(fast, p, k) == want
        assert_same_state(ref, fast)

    def test_collisions_force_redraws(self):
        # One dominant weight: most first rounds hit it twice or more.
        p = probabilities([97.0, 1.0, 0.0, 1.0, 1.0])
        for seed in range(200):
            ref, fast = twins(seed)
            want = ref.choice(len(p), size=3, replace=False, p=p).tolist()
            assert weighted_sample(fast, p, 3) == want
            assert_same_state(ref, fast)

    def test_too_few_nonzero_weights_raise_before_drawing(self):
        p = probabilities([0.0, 1.0, 0.0, 1.0])
        ref, fast = twins(3)
        with pytest.raises(ValueError):
            ref.choice(4, size=3, replace=False, p=p)
        with pytest.raises(ValueError, match="Fewer non-zero entries"):
            weighted_sample(fast, p, 3)
        assert_same_state(ref, fast)
        assert fast.bit_generator.state == np.random.default_rng(3).bit_generator.state


class TestBatchedLengths:
    """The prefix-table generator draws every AS's prefix lengths at once:
    one batch of uniforms through the mix's CDF, for one ``choice`` per AS."""

    @given(
        seeds,
        st.lists(st.integers(0, 40), min_size=1, max_size=30),
        st.one_of(
            st.just(DEFAULT_LENGTH_MIX),
            st.dictionaries(st.integers(1, 32), st.floats(1e-3, 1.0), min_size=1),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_one_choice_per_as(self, seed, counts, mix):
        lengths = np.array(sorted(mix), dtype=np.int64)
        weights = np.array([mix[int(l)] for l in lengths], dtype=float)
        weights = weights / weights.sum()
        ref, fast = twins(seed)
        want = [ref.choice(lengths, size=c, p=weights) for c in counts]
        got = lengths[choice_cdf(weights).searchsorted(fast.random(sum(counts)), side="right")]
        assert np.array_equal(got, np.concatenate(want))
        assert_same_state(ref, fast)
