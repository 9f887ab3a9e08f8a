"""Share schedules: validation, averages, properties."""

import numpy as np
import pytest

from repro.core.properties import subset_delay, subset_loss, subset_risk
from repro.core.schedule import ShareSchedule


class TestConstruction:
    def test_singleton(self, three_channels):
        s = ShareSchedule.singleton(three_channels, 2, [0, 1])
        assert s.probability(2, [0, 1]) == 1.0
        assert s.kappa == 2.0
        assert s.mu == 2.0

    def test_probabilities_must_sum_to_one(self, three_channels):
        with pytest.raises(ValueError):
            ShareSchedule(three_channels, {(1, frozenset({0})): 0.7})

    def test_negative_probability_rejected(self, three_channels):
        with pytest.raises(ValueError):
            ShareSchedule(
                three_channels,
                {(1, frozenset({0})): 1.5, (1, frozenset({1})): -0.5},
            )

    def test_tiny_negative_noise_tolerated(self, three_channels):
        s = ShareSchedule(
            three_channels,
            {(1, frozenset({0})): 1.0 + 1e-12, (1, frozenset({1})): -1e-12},
        )
        assert len(s) == 1

    def test_invalid_k_rejected(self, three_channels):
        with pytest.raises(ValueError):
            ShareSchedule(three_channels, {(3, frozenset({0, 1})): 1.0})

    def test_empty_subset_rejected(self, three_channels):
        with pytest.raises(ValueError):
            ShareSchedule(three_channels, {(1, frozenset()): 1.0})

    def test_zero_probability_pairs_dropped(self, three_channels):
        s = ShareSchedule(
            three_channels,
            {(1, frozenset({0})): 1.0, (2, frozenset({0, 1})): 0.0},
        )
        assert len(s) == 1

    def test_renormalisation_is_exact(self, three_channels):
        s = ShareSchedule(
            three_channels,
            {(1, frozenset({0})): 0.5 + 1e-9, (1, frozenset({1})): 0.5},
        )
        total = sum(p for _, p in s.support())
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_from_arrays(self, three_channels):
        pairs = [(1, frozenset({0})), (2, frozenset({1, 2}))]
        s = ShareSchedule.from_arrays(three_channels, pairs, [0.25, 0.75])
        assert s.probability(2, {1, 2}) == pytest.approx(0.75)

    def test_equality(self, three_channels):
        a = ShareSchedule.singleton(three_channels, 1, [0])
        b = ShareSchedule(three_channels, {(1, frozenset({0})): 1.0})
        c = ShareSchedule.singleton(three_channels, 1, [1])
        assert a == b
        assert a != c


class TestAverages:
    def test_kappa_mu_mixture(self, three_channels):
        s = ShareSchedule(
            three_channels,
            {(1, frozenset({0})): 0.5, (3, frozenset({0, 1, 2})): 0.5},
        )
        assert s.kappa == pytest.approx(2.0)
        assert s.mu == pytest.approx(2.0)

    def test_properties_are_weighted_averages(self, five_channels):
        pairs = {
            (1, frozenset({0, 1})): 0.3,
            (2, frozenset({1, 2, 3})): 0.7,
        }
        s = ShareSchedule(five_channels, pairs)
        expected_z = 0.3 * subset_risk(five_channels, 1, {0, 1}) + 0.7 * subset_risk(
            five_channels, 2, {1, 2, 3}
        )
        expected_l = 0.3 * subset_loss(five_channels, 1, {0, 1}) + 0.7 * subset_loss(
            five_channels, 2, {1, 2, 3}
        )
        expected_d = 0.3 * subset_delay(five_channels, 1, {0, 1}) + 0.7 * subset_delay(
            five_channels, 2, {1, 2, 3}
        )
        assert s.privacy_risk() == pytest.approx(expected_z)
        assert s.loss() == pytest.approx(expected_l)
        assert s.delay() == pytest.approx(expected_d)


class TestRateQuantities:
    def test_channel_usage(self, three_channels):
        s = ShareSchedule(
            three_channels,
            {(1, frozenset({0})): 0.5, (2, frozenset({0, 2})): 0.5},
        )
        np.testing.assert_allclose(s.channel_usage(), [1.0, 0.0, 0.5])

    def test_max_symbol_rate_binding_channel(self, three_channels):
        # rates are (3, 4, 8); usage (1, 0, .5) -> bounds 3/1, 8/.5 -> 3.
        s = ShareSchedule(
            three_channels,
            {(1, frozenset({0})): 0.5, (2, frozenset({0, 2})): 0.5},
        )
        assert s.max_symbol_rate() == pytest.approx(3.0)

    def test_max_symbol_rate_full_set(self, three_channels):
        s = ShareSchedule.singleton(three_channels, 1, [0, 1, 2])
        # Every symbol uses all channels; slowest channel binds.
        assert s.max_symbol_rate() == pytest.approx(3.0)
