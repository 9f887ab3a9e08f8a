"""The HMM-based risk assessment substrate."""

import numpy as np
import pytest

from repro.adversary.riskassess import (
    COMPROMISED,
    SAFE,
    HmmRiskEstimator,
    HmmRiskModel,
    assess_channel_set,
    forward_posterior,
    simulate_channel_history,
)
from repro.core.channel import ChannelSet


def brute_force_posterior(model, alerts):
    """P(last state = COMPROMISED | alerts) by enumerating all state paths."""
    from itertools import product

    transition = model.transition
    emission = model.emission
    prior = [1.0 - model.initial_risk, model.initial_risk]
    total = 0.0
    compromised = 0.0
    for path in product((SAFE, COMPROMISED), repeat=len(alerts)):
        p = 1.0
        previous = None
        for state, alert in zip(path, alerts):
            if previous is None:
                p *= prior[SAFE] * transition[SAFE, state] + prior[COMPROMISED] * transition[
                    COMPROMISED, state
                ]
            else:
                p *= transition[previous, state]
            p *= emission[state, int(alert)]
            previous = state
        total += p
        if path[-1] == COMPROMISED:
            compromised += p
    return compromised / total


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            HmmRiskModel(p_compromise=1.5)
        with pytest.raises(ValueError):
            HmmRiskModel(p_true_alert=0.1, p_false_alert=0.2)

    def test_matrices_are_stochastic(self):
        model = HmmRiskModel()
        np.testing.assert_allclose(model.transition.sum(axis=1), [1.0, 1.0])
        np.testing.assert_allclose(model.emission.sum(axis=1), [1.0, 1.0])


class TestForwardFiltering:
    def test_matches_brute_force(self):
        model = HmmRiskModel(
            p_compromise=0.1, p_recover=0.2, p_false_alert=0.1, p_true_alert=0.8,
            initial_risk=0.3,
        )
        for alerts in ([], [True], [False], [True, False, True], [False] * 5, [True] * 4):
            if not alerts:
                continue
            assert forward_posterior(model, alerts) == pytest.approx(
                brute_force_posterior(model, alerts)
            )

    def test_alerts_raise_risk(self):
        model = HmmRiskModel()
        quiet = forward_posterior(model, [False] * 10)
        noisy = forward_posterior(model, [False] * 9 + [True])
        assert noisy > quiet

    def test_sustained_alerts_approach_certainty(self):
        model = HmmRiskModel(p_true_alert=0.9, p_false_alert=0.01)
        risk = forward_posterior(model, [True] * 30)
        assert risk > 0.95

    def test_quiet_stream_approaches_low_risk(self):
        model = HmmRiskModel(p_compromise=0.01, p_recover=0.3)
        risk = forward_posterior(model, [False] * 50)
        assert risk < 0.05

    def test_estimator_is_incremental(self):
        model = HmmRiskModel()
        alerts = [True, False, True, True, False]
        incremental = HmmRiskEstimator(model)
        for alert in alerts:
            incremental.update(alert)
        assert incremental.risk == pytest.approx(forward_posterior(model, alerts))

    def test_estimates_track_ground_truth(self):
        """Filtered risk separates compromised epochs from safe ones."""
        model = HmmRiskModel(
            p_compromise=0.02, p_recover=0.05, p_false_alert=0.05, p_true_alert=0.7
        )
        rng = np.random.default_rng(3)
        states, alerts = simulate_channel_history(model, 2000, rng)
        estimator = HmmRiskEstimator(model)
        risks = [estimator.update(alert) for alert in alerts]
        risks = np.array(risks)
        states = np.array(states)
        if states.any() and not states.all():
            assert risks[states == COMPROMISED].mean() > risks[states == SAFE].mean() + 0.2


class TestSimulation:
    def test_history_shapes(self, rng):
        model = HmmRiskModel()
        states, alerts = simulate_channel_history(model, 100, rng)
        assert len(states) == len(alerts) == 100
        assert set(states) <= {SAFE, COMPROMISED}

    def test_invalid_epochs(self, rng):
        with pytest.raises(ValueError):
            simulate_channel_history(HmmRiskModel(), 0, rng)

    def test_alert_rates_match_emission(self, rng):
        model = HmmRiskModel(p_false_alert=0.05, p_true_alert=0.7)
        states, alerts = simulate_channel_history(model, 20000, rng)
        states = np.array(states)
        alerts = np.array(alerts)
        safe_rate = alerts[states == SAFE].mean()
        assert safe_rate == pytest.approx(0.05, abs=0.01)


class TestAssessChannelSet:
    def test_risks_replaced_others_kept(self, rng):
        base = ChannelSet.from_vectors(
            risks=[0.5, 0.5],
            losses=[0.01, 0.02],
            delays=[0.1, 0.2],
            rates=[10.0, 20.0],
            names=["a", "b"],
        )
        models = [HmmRiskModel(), HmmRiskModel(p_true_alert=0.9)]
        streams = [[False] * 20, [True] * 20]
        assessed = assess_channel_set(base, models, streams)
        assert assessed[0].risk < 0.2
        assert assessed[1].risk > 0.5
        np.testing.assert_allclose(assessed.losses, base.losses)
        np.testing.assert_allclose(assessed.rates, base.rates)
        assert assessed[0].name == "a"

    def test_length_mismatch(self):
        base = ChannelSet.from_vectors([0.1], [0.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            assess_channel_set(base, [HmmRiskModel()], [])
