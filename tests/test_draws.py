"""The exact-draw helpers equal the numpy calls they stand for.

Every test runs the numpy call on one generator and the helper on a twin
with the same seed, then checks the values and the final bit-generator
state: a helper that consumed one draw more or less would shift every
later draw of the substrate generators.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import draws
from repro.bgp import allocation
from repro.bgp.allocation import DEFAULT_LENGTH_MIX, AllocationConfig, BuddyAllocator
from repro.draws import (
    WordStream,
    choice_cdf,
    integer_sampler,
    pair_draws,
    weighted_choice,
    weighted_sample,
)
from repro.topology import generator

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


def scalar_pairs(rng, n, count):
    """The loop :func:`pair_draws` decodes, one draw at a time."""
    draw = integer_sampler(rng)
    out = []
    for _ in range(count):
        a, b = draw(n), draw(n)
        out.append((a, b, rng.random() if a != b else None))
    return out


def decoded(a, b, u):
    """``pair_draws``' arrays as the scalar loop's ``(a, b, u)`` list."""
    return [
        (x, y, None if math.isnan(z) else z)
        for x, y, z in zip(a.tolist(), b.tolist(), u.tolist())
    ]


def primed(seed, buffered):
    """A generator with (``buffered``) or without a half-word in its
    32-bit buffer."""
    rng = np.random.default_rng(seed)
    if buffered:
        rng.integers(0, 5)
    assert rng.bit_generator.state["has_uint32"] == int(buffered)
    return rng


class TestPairDraws:
    """``pair_draws`` decodes ``a, b = integers(n), integers(n)`` and a
    uniform unless ``a == b``, and commits any prefix of the attempts."""

    @pytest.mark.parametrize("n", [2, 3, 7, 400, 3000])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_equals_scalar_loop(self, n, buffered):
        for seed in range(6):
            for count in (1, 5, 300, 2000):
                ref, fast = primed(seed, buffered), primed(seed, buffered)
                a, b, u, commit = pair_draws(fast, n, count)
                # Nothing is consumed until the commit.
                assert_same_state(primed(seed, buffered), fast)
                assert decoded(a, b, u) == scalar_pairs(ref, n, count)
                commit(count)
                assert_same_state(ref, fast)

    @pytest.mark.parametrize("n", [3, 3000])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_commit_any_prefix(self, n, buffered):
        count = 500
        for k in (0, 1, 2, 137, 499, 500):
            ref, fast = primed(k, buffered), primed(k, buffered)
            *_, commit = pair_draws(fast, n, count)
            scalar_pairs(ref, n, k)
            commit(k)
            assert_same_state(ref, fast)
            # The next draws carry on from there.
            assert fast.random() == ref.random()
            assert int(fast.integers(0, 9)) == int(ref.integers(0, 9))
        with pytest.raises(ValueError):
            commit(count + 1)

    @pytest.mark.parametrize("buffered", [False, True])
    def test_lemire_rejections(self, buffered):
        # Near 3·2**30 about a quarter of the 32-bit draws are rejected
        # and redrawn, which flips the half-word buffer's parity.
        n = 3 << 30
        for seed in range(4):
            ref, fast = primed(seed, buffered), primed(seed, buffered)
            a, b, u, commit = pair_draws(fast, n, 400)
            assert decoded(a, b, u) == scalar_pairs(ref, n, 400)
            commit(400)
            assert_same_state(ref, fast)
        plain = primed(seed, buffered)
        plain.bit_generator.random_raw(400 * 3 // 2)
        assert plain.bit_generator.state != fast.bit_generator.state

    def test_bounds_outside_32_bits_raise(self):
        for n in (1, 0, 1 << 32):
            with pytest.raises(ValueError):
                pair_draws(np.random.default_rng(0), n, 4)


def scalar_peering(rng, positions, adjacency, connect, target, max_attempts):
    """The extra-peering loop as it ran before it was decoded in bulk:
    the oracle of :func:`generator.add_peering_links`."""
    integers = integer_sampler(rng)
    n = len(positions)
    links = sum(len(nbrs) for nbrs in adjacency) // 2
    attempts = 0
    while links < target and attempts < max_attempts:
        attempts += 1
        a = integers(n) + 1
        b = integers(n) + 1
        if a == b:
            continue
        (ax, ay), (bx, by) = positions[a - 1], positions[b - 1]
        if rng.random() > math.exp(-math.hypot(ax - bx, ay - by) / 2000.0):
            continue
        if b in adjacency[a - 1]:
            continue
        connect(a, b)
        links += 1
    return attempts


def peering_run(peer, seed, n, extra, buffered):
    """``(links made, attempts, final state)`` of ``peer`` asked for
    ``extra`` links over a path through ``n`` sites spread over 3,000 km."""
    sites = np.random.default_rng(seed + 100).uniform(0.0, 3000.0, size=(n, 2))
    positions = [tuple(p) for p in sites.tolist()]
    adjacency = [{} for _ in range(n)]
    made = []

    def connect(a, b):
        adjacency[a - 1][b] = adjacency[b - 1][a] = 1.0
        made.append((a, b))

    for a in range(1, n):
        connect(a, a + 1)
    rng = primed(seed, buffered)
    target = n - 1 + extra
    attempts = peer(rng, positions, adjacency, connect, target, 20 * extra + 100)
    return made, attempts, rng.bit_generator.state


#: n -> extra links asked for: with 2 sites none can be added and with 3
#: only one, so those runs stop at ``max_attempts``; the others reach
#: their target.
PEERING_CASES = {2: 1, 3: 2, 7: 8, 400: 300, 3000: 2500}


class TestPeeringLinks:
    """``add_peering_links`` makes the scalar loop's links, in its order,
    from the same attempts, and leaves the generator where it does."""

    @pytest.mark.parametrize("n", sorted(PEERING_CASES))
    @pytest.mark.parametrize("buffered", [False, True])
    def test_equals_scalar_loop(self, n, buffered):
        extra = PEERING_CASES[n]
        for seed in range(3):
            want = peering_run(scalar_peering, seed, n, extra, buffered)
            got = peering_run(generator.add_peering_links, seed, n, extra, buffered)
            assert got == want
            made, attempts, _ = got
            if n <= 3:
                assert attempts == 20 * extra + 100 and len(made) < n - 1 + extra
            else:
                assert len(made) == n - 1 + extra and attempts < 20 * extra + 100

    def test_target_reached_inside_a_chunk(self, monkeypatch):
        monkeypatch.setattr(generator, "PEERING_CHUNK", 64)
        want = peering_run(scalar_peering, 1, 400, 300, False)
        got = peering_run(generator.add_peering_links, 1, 400, 300, False)
        assert got == want
        assert got[1] % 64 != 0

    def test_every_draw_decided_by_math(self, monkeypatch):
        # With an infinite margin every attempt with a != b is tested
        # with the scalar expression; the links must not change.
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, x):
                calls.append(x)
                return math.exp(x)

        want = peering_run(scalar_peering, 2, 400, 300, True)
        monkeypatch.setattr(generator, "PEERING_ULPS", math.inf)
        monkeypatch.setattr(generator, "math", CountingMath())
        got = peering_run(generator.add_peering_links, 2, 400, 300, True)
        assert got == want
        # One exp per decoded attempt with a != b (nearly all of them),
        # the ones decoded past the stop included.
        assert len(calls) > got[1] - 10


class TestWordStream:
    """The stream's draws are the generator's one-at-a-time draws, and its
    commit leaves the generator where those draws leave it."""

    @pytest.mark.parametrize("buffered", [False, True])
    def test_bounded_with_lemire_rejections(self, buffered):
        # Near 3·2**30 about a quarter of the 32-bit draws are rejected.
        n = 3 << 30
        for seed in range(4):
            ref, fast = primed(seed, buffered), primed(seed, buffered)
            draw = integer_sampler(ref)
            stream = WordStream(fast)
            assert [stream.bounded(n) for _ in range(3000)] == [draw(n) for _ in range(3000)]
            read, _, _ = stream.mark()
            assert read > 3000 // 2 + 3000 // 10
            stream.commit()
            assert_same_state(ref, fast)
            assert fast.random() == ref.random()

    def test_mixed_draws_across_chunks(self, monkeypatch):
        monkeypatch.setattr(draws, "WORD_CHUNK", 3)
        ref, fast = primed(4, True), primed(4, True)
        draw = integer_sampler(ref)
        stream = WordStream(fast)
        for i in range(500):
            if i % 3 == 2:
                assert stream.double() == ref.random()
            else:
                assert stream.bounded(7 + i) == draw(7 + i)
        # Consumed words are dropped: the stream holds one chunk.
        assert len(stream.ints) == len(stream.words) <= 3 < stream.mark()[0]
        stream.commit()
        assert_same_state(ref, fast)

    def test_generator_without_half_word_buffer_rejected(self):
        with pytest.raises(ValueError, match="half-word buffer"):
            WordStream(np.random.Generator(np.random.MT19937(0)))


class ScalarBuddy:
    """The buddy allocator as it ran before its draws were read in bulk,
    one ``integers`` draw at a time: the oracle of
    :meth:`BuddyAllocator.allocate_all`."""

    def __init__(self, bits, rng):
        self.bits = bits
        self.integers = integer_sampler(rng)
        self.free = [[] for _ in range(bits + 1)]
        self.free[0].append(0)

    def allocate(self, length):
        source = length
        while source >= 0 and not self.free[source]:
            source -= 1
        if source < 0:
            return None
        pool = self.free[source]
        pick = self.integers(len(pool))
        pool[pick], pool[-1] = pool[-1], pool[pick]
        base = pool.pop()
        while source < length:
            source += 1
            half_span = 1 << (self.bits - source)
            if self.integers(2):
                self.free[source].append(base)
                base += half_span
            else:
                self.free[source].append(base + half_span)
        return base

    def allocate_all(self, lengths):
        return [self.allocate(length) for length in lengths]


def assert_allocates_like_scalar(bits, lengths, seed, buffered, rounds=1):
    """``allocate_all`` over ``lengths`` (``rounds`` calls on one
    allocator) gives the oracle's bases, free lists and generator state;
    returns the bases of each round."""
    ref, fast = primed(seed, buffered), primed(seed, buffered)
    oracle, allocator = ScalarBuddy(bits, ref), BuddyAllocator(bits, fast)
    got = []
    for _ in range(rounds):
        want = oracle.allocate_all(lengths)
        assert allocator.allocate_all(lengths) == want
        got.append(want)
    assert allocator._free == oracle.free
    assert_same_state(ref, fast)
    # The next draws carry on from there.
    assert fast.random() == ref.random()
    assert int(fast.integers(0, 1000)) == int(ref.integers(0, 1000))
    return got


class TestAllocateAll:
    """``allocate_all`` places blocks as one ``allocate`` after another,
    drawing the same bits, on every numpy version."""

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_equals_scalar_allocator(self, bits, buffered):
        for seed in range(3):
            lengths = np.random.default_rng(seed + 50).integers(
                bits // 4, bits + 1, size=300
            ).tolist()
            assert_allocates_like_scalar(bits, lengths, seed, buffered)
            assert_allocates_like_scalar(bits, sorted(lengths), seed, buffered)

    @pytest.mark.parametrize("buffered", [False, True])
    def test_exhaustion_returns_none(self, buffered):
        # A second /1 does not fit beside a /1 and a /2, but the /3s after
        # it do; then the 4-bit space is full and every request misses.
        lengths = [1, 2, 1, 3, 3, 4, 0]
        for seed in range(4):
            first, second = assert_allocates_like_scalar(4, lengths, seed, buffered, rounds=2)
            assert [base is None for base in first] == [0, 0, 1, 0, 0, 1, 1]
            assert second == [None] * len(lengths)

    def test_run_crosses_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(draws, "WORD_CHUNK", 5)
        lengths = np.random.default_rng(8).integers(4, 25, size=2000).tolist()
        for buffered in (False, True):
            assert_allocates_like_scalar(24, lengths, 3, buffered)

    def test_bad_length_leaves_earlier_draws_committed(self):
        ref, fast = primed(2, True), primed(2, True)
        oracle, allocator = ScalarBuddy(10, ref), BuddyAllocator(10, fast)
        for length in (4, 7, 7):
            oracle.allocate(length)
        with pytest.raises(allocation.ConfigurationError):
            allocator.allocate_all([4, 7, 7, 11, 3])
        assert allocator._free == oracle.free
        assert_same_state(ref, fast)

    @pytest.mark.parametrize("seed", range(3))
    def test_prefix_table_equals_scalar_allocator(self, seed, monkeypatch):
        # Both of the generator's passes through the scalar oracle.  The
        # 28-bit mix has no /24 and no /16, so its /24s come from the
        # every-AS pass, which every seed here reaches.
        asns = list(range(1, 61))
        configs = [
            AllocationConfig(prefixes_per_as=4),
            AllocationConfig(bits=28, length_mix={4: 0.1, 8: 0.3, 26: 0.6}, prefixes_per_as=3),
        ]
        for config in configs:
            table = allocation.generate_global_prefix_table(asns, config, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(allocation, "BuddyAllocator", ScalarBuddy)
                want = allocation.generate_global_prefix_table(asns, config, seed=seed)
            got, want = table.prefix_arrays(), want.prefix_arrays()
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert 24 in got[1].tolist()
