"""The rate results: Theorems 1-4, corollaries, and the Fig. 2 packing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import ChannelSet
from repro.core.rate import (
    full_utilization_mu_limit,
    fully_utilized_set,
    max_rate,
    mu_for_target_rate,
    optimal_channel_usage,
    optimal_rate,
    optimal_rate_bruteforce,
    pack_schedule,
    rate_maximizing_schedule,
    theorem1_lower_bound,
)

rate_lists = st.lists(
    st.floats(min_value=0.5, max_value=100.0), min_size=1, max_size=6
)


def channels_from_rates(rates):
    n = len(rates)
    return ChannelSet.from_vectors(
        risks=[0.0] * n, losses=[0.0] * n, delays=[0.0] * n, rates=rates
    )


class TestMaxRate:
    def test_is_total(self, five_channels):
        assert max_rate(five_channels) == pytest.approx(250.0)

    def test_rate_maximizing_schedule(self, five_channels):
        s = rate_maximizing_schedule(five_channels)
        assert s.kappa == pytest.approx(1.0)
        assert s.mu == pytest.approx(1.0)
        assert s.max_symbol_rate() == pytest.approx(250.0)
        # Proportional split: p(1, {i}) = r_i / R_C.
        assert s.probability(1, {4}) == pytest.approx(100.0 / 250.0)


class TestTheorem4:
    def test_mu_one_gives_total(self, five_channels):
        assert optimal_rate(five_channels, 1.0) == pytest.approx(250.0)

    def test_mu_n_gives_min(self, five_channels):
        assert optimal_rate(five_channels, 5.0) == pytest.approx(5.0)

    def test_diverse_known_value(self, five_channels):
        # rates (5,20,60,65,100), mu=3: min over prefixes -> 75.
        assert optimal_rate(five_channels, 3.0) == pytest.approx(75.0)

    def test_identical_channels_closed_form(self):
        channels = channels_from_rates([10.0] * 5)
        for mu in (1.0, 1.7, 2.5, 4.0, 5.0):
            assert optimal_rate(channels, mu) == pytest.approx(50.0 / mu)

    def test_matches_bruteforce(self, five_channels):
        for mu in np.arange(1.0, 5.01, 0.25):
            assert optimal_rate(five_channels, float(mu)) == pytest.approx(
                optimal_rate_bruteforce(five_channels, float(mu))
            )

    @given(rates=rate_lists, mu_frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_property(self, rates, mu_frac):
        channels = channels_from_rates(rates)
        mu = 1.0 + mu_frac * (len(rates) - 1)
        assert optimal_rate(channels, mu) == pytest.approx(
            optimal_rate_bruteforce(channels, mu)
        )

    @given(rates=rate_lists, mu_frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_in_mu(self, rates, mu_frac):
        channels = channels_from_rates(rates)
        mu = 1.0 + mu_frac * (len(rates) - 1)
        higher_mu = min(float(len(rates)), mu + 0.3)
        assert optimal_rate(channels, mu) >= optimal_rate(channels, higher_mu) - 1e-9

    def test_invalid_mu_rejected(self, five_channels):
        with pytest.raises(ValueError):
            optimal_rate(five_channels, 0.5)
        with pytest.raises(ValueError):
            optimal_rate(five_channels, 5.5)


class TestTheorem1:
    def test_lower_bound_value(self, five_channels):
        # mu = 3: the 3rd-highest rate is 60.
        assert theorem1_lower_bound(five_channels, 3.0) == pytest.approx(60.0)
        # mu = 2.5 -> ceil = 3 -> still 60.
        assert theorem1_lower_bound(five_channels, 2.5) == pytest.approx(60.0)

    @given(rates=rate_lists, mu_frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_theorem1_holds(self, rates, mu_frac):
        channels = channels_from_rates(rates)
        mu = 1.0 + mu_frac * (len(rates) - 1)
        assert optimal_rate(channels, mu) >= theorem1_lower_bound(channels, mu) - 1e-9


class TestTheorem2:
    def test_limit_value(self, five_channels):
        assert full_utilization_mu_limit(five_channels) == pytest.approx(2.5)

    def test_identical_channels_always_full(self):
        # Corollary 1: identical rates -> limit is n.
        channels = channels_from_rates([7.0] * 4)
        assert full_utilization_mu_limit(channels) == pytest.approx(4.0)

    def test_full_utilization_iff_below_limit(self, five_channels):
        limit = full_utilization_mu_limit(five_channels)
        total = max_rate(five_channels)
        # Below the limit, R_C = total/mu (all channels fully used).
        for mu in (1.0, 1.5, 2.0, 2.49):
            assert optimal_rate(five_channels, mu) == pytest.approx(total / mu)
        # Above it, strictly less.
        for mu in (2.6, 3.0, 4.0):
            assert optimal_rate(five_channels, mu) < total / mu - 1e-9
        assert limit == pytest.approx(2.5)


class TestTheorem3:
    @given(rates=rate_lists, mu_frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_theorem3_fixed_point(self, rates, mu_frac):
        """R_C(µ) and µ(R_C) are inverses: µ = Σ min(r_i/R_C, 1)."""
        channels = channels_from_rates(rates)
        mu = 1.0 + mu_frac * (len(rates) - 1)
        rate = optimal_rate(channels, mu)
        assert mu_for_target_rate(channels, rate) == pytest.approx(mu, abs=1e-9)

    def test_mu_for_target_rate_monotone(self, five_channels):
        rates = [10.0, 50.0, 100.0, 200.0]
        mus = [mu_for_target_rate(five_channels, r) for r in rates]
        assert all(a >= b - 1e-12 for a, b in zip(mus, mus[1:]))

    def test_invalid_target(self, five_channels):
        with pytest.raises(ValueError):
            mu_for_target_rate(five_channels, 0.0)


class TestFullyUtilizedSet:
    def test_corollary2_size_bound(self, five_channels):
        for mu in np.arange(1.0, 5.01, 0.5):
            utilized = fully_utilized_set(five_channels, float(mu))
            assert len(utilized) > five_channels.n - mu

    def test_mu_one_all_utilized(self, five_channels):
        assert fully_utilized_set(five_channels, 1.0) == frozenset(range(5))

    def test_mu_n_slowest_only(self, five_channels):
        # R_C = 5; only the 5 Mbps channel satisfies r_i <= R_C.
        assert fully_utilized_set(five_channels, 5.0) == frozenset({0})

    def test_usage_vector(self, five_channels):
        usage = optimal_channel_usage(five_channels, 3.0)
        rate = optimal_rate(five_channels, 3.0)
        np.testing.assert_allclose(
            usage, np.minimum(five_channels.rates / rate, 1.0)
        )
        # Theorem 3: usages sum to mu.
        assert usage.sum() == pytest.approx(3.0)


class TestPackSchedule:
    def test_fig2_example(self):
        """The paper's Figure 2 rates (3, 4, 8) pack to the optimum."""
        channels = channels_from_rates([3.0, 4.0, 8.0])
        for m in (1, 2, 3):
            columns, used = pack_schedule([3, 4, 8], m)
            assert len(columns) == int(optimal_rate(channels, float(m)))
            assert all(len(col) == m for col in columns)

    def test_mu_one_uses_everything(self):
        columns, used = pack_schedule([3, 4, 8], 1)
        assert len(columns) == 15
        assert used == [3, 4, 8]

    def test_usage_never_exceeds_capacity(self):
        for rates, m in (([2, 5, 9, 1], 2), ([(i * 37) % 50 + 1 for i in range(12)], 4)):
            columns, used = pack_schedule(rates, m)
            assert columns
            assert all(u <= r for u, r in zip(used, rates))

    def test_no_channel_twice_per_symbol(self):
        columns, _ = pack_schedule([5, 5, 5], 3)
        assert all(len(col) == 3 for col in columns)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pack_schedule([3, 4], 3)
        with pytest.raises(ValueError):
            pack_schedule([3, -1], 1)
        with pytest.raises(ValueError):
            pack_schedule([3, 4], 0)

    @given(
        rates=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6),
        m=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_achieves_theorem4_floor(self, rates, m):
        if m > len(rates) or all(r == 0 for r in rates):
            return
        columns, used = pack_schedule(rates, m)
        positive = [float(max(r, 1e-9)) for r in rates]
        channels = channels_from_rates(positive)
        # Greedy water-filling is optimal for integer capacities.
        optimum = optimal_rate(channels, float(m))
        assert len(columns) == math.floor(optimum + 1e-9)
