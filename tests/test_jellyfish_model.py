"""Tests for the §V analytical response-time bound."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.jellyfish_model import (
    AnalyticalModel,
    PAPER_C0,
    PAPER_C1,
    expected_min_distance_bound,
    p_jl,
    q_l,
    response_time_upper_bound_ms,
)
from repro.errors import ConfigurationError

RATIOS = (0.1, 0.2, 0.4, 0.3)


@st.composite
def ratio_vectors(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=n,
            max_size=n,
        )
    )
    total = sum(raw)
    return tuple(r / total for r in raw)


class TestPjl:
    def test_saturates_at_one_for_small_l(self):
        # l - j <= 0: the window covers every layer.
        assert p_jl(RATIOS, j=2, l=1) == 1.0
        assert p_jl(RATIOS, j=2, l=2) == 1.0

    def test_tail_sum(self):
        # l - j = 2: layers 2 and 3.
        assert p_jl(RATIOS, j=0, l=2) == pytest.approx(0.4 + 0.3)

    def test_zero_beyond_layers(self):
        assert p_jl(RATIOS, j=0, l=10) == 0.0

    def test_monotone_nonincreasing_in_l(self):
        values = [p_jl(RATIOS, 1, l) for l in range(0, 8)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            p_jl(RATIOS, j=4, l=1)
        with pytest.raises(ConfigurationError):
            p_jl((0.5, 0.4), j=0, l=1)  # does not sum to 1


class TestQl:
    def test_increases_with_k(self):
        for l in (1, 2, 3):
            values = [q_l(RATIOS, l, k) for k in (1, 2, 5, 10)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_bounded_by_one(self):
        for l in range(0, 8):
            for k in (1, 3, 7):
                assert 0.0 <= q_l(RATIOS, l, k) <= 1.0

    def test_k_validation(self):
        with pytest.raises(ConfigurationError):
            q_l(RATIOS, 1, 0)

    @given(ratio_vectors(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=50)
    def test_nondecreasing_in_l(self, ratios, k):
        values = [q_l(ratios, l, k) for l in range(1, 2 * len(ratios))]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


class TestBound:
    def test_decreasing_in_k(self):
        values = [expected_min_distance_bound(RATIOS, k) for k in range(1, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_positive(self):
        assert expected_min_distance_bound(RATIOS, 1) > 0

    def test_affine_mapping(self):
        d = expected_min_distance_bound(RATIOS, 3)
        assert response_time_upper_bound_ms(RATIOS, 3) == pytest.approx(
            PAPER_C0 * d + PAPER_C1
        )
        assert response_time_upper_bound_ms(RATIOS, 3, c0=0.0, c1=5.0) == 5.0

    def test_negative_c0_rejected(self):
        with pytest.raises(ConfigurationError):
            response_time_upper_bound_ms(RATIOS, 1, c0=-1.0)

    @given(ratio_vectors())
    @settings(max_examples=50)
    def test_diminishing_returns(self, ratios):
        b1 = expected_min_distance_bound(ratios, 1)
        b2 = expected_min_distance_bound(ratios, 2)
        b10 = expected_min_distance_bound(ratios, 10)
        b11 = expected_min_distance_bound(ratios, 11)
        assert (b1 - b2) >= (b10 - b11) - 1e-9


class TestAnalyticalModel:
    def test_sweep(self):
        model = AnalyticalModel("test", RATIOS)
        curve = model.sweep([1, 2, 3])
        assert len(curve) == 3
        assert curve[0] >= curve[1] >= curve[2]
        assert model.n_layers == 4

    def test_invalid_ratios_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalyticalModel("bad", (0.5, 0.1))
