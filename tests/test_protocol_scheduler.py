"""Per-symbol parameter samplers (dynamic and explicit)."""

import numpy as np
import pytest

from repro.core.program import fractional_atoms
from repro.core.schedule import ShareSchedule
from repro.protocol.scheduler import DynamicParameterSampler, ExplicitScheduler


def _numpy_picks(atoms, rng, count):
    """The picks ``rng.choice(n, p=probs)`` makes over ``(pick, weight)`` atoms."""
    picks = [pick for pick, _ in atoms]
    probs = np.array([weight for _, weight in atoms])
    probs = probs / probs.sum()
    return [picks[int(rng.choice(len(picks), p=probs))] for _ in range(count)]


def _three_pair_schedule(channels):
    return ShareSchedule(
        channels,
        {
            (1, frozenset({0})): 0.2,
            (2, frozenset({0, 1, 2})): 0.5,
            (4, frozenset({0, 1, 2, 3, 4})): 0.3,
        },
    )


class TestDynamicSampler:
    def test_integral_parameters_deterministic(self, rng):
        sampler = DynamicParameterSampler(2.0, 4.0, rng)
        for _ in range(50):
            assert sampler.sample() == (2, 4, None)

    def test_averages_converge(self, rng):
        sampler = DynamicParameterSampler(1.7, 3.4, rng)
        draws = [sampler.sample() for _ in range(30000)]
        assert np.mean([k for k, _, _ in draws]) == pytest.approx(1.7, abs=0.02)
        assert np.mean([m for _, m, _ in draws]) == pytest.approx(3.4, abs=0.02)

    def test_ordering_always_valid(self, rng):
        sampler = DynamicParameterSampler(2.9, 3.1, rng)
        for _ in range(2000):
            k, m, subset = sampler.sample()
            assert 1 <= k <= m
            assert subset is None

    def test_same_unit_cell(self, rng):
        sampler = DynamicParameterSampler(2.2, 2.8, rng)
        draws = [sampler.sample() for _ in range(30000)]
        assert np.mean([k for k, _, _ in draws]) == pytest.approx(2.2, abs=0.02)
        assert np.mean([m for _, m, _ in draws]) == pytest.approx(2.8, abs=0.02)

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            DynamicParameterSampler(3.0, 2.0, rng)

    @pytest.mark.parametrize(
        "kappa, mu, atom_count", [(1.5, 3.0, 2), (2.7, 2.9, 3), (1.3, 3.4, 4)]
    )
    def test_draws_are_numpy_choice_draws(self, kappa, mu, atom_count):
        # One random() per draw, exactly as Generator.choice takes it: every
        # pick and the generator's final state match a twin generator.
        atoms = fractional_atoms(kappa, mu)
        assert len(atoms) == atom_count
        rng, twin = np.random.default_rng(2016), np.random.default_rng(2016)
        sampler = DynamicParameterSampler(kappa, mu, rng)
        picks = [sampler.sample()[:2] for _ in range(20000)]
        assert picks == _numpy_picks(atoms, twin, 20000)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestExplicitScheduler:
    def test_returns_subsets_from_schedule(self, five_channels, rng):
        schedule = ShareSchedule(
            five_channels,
            {(1, frozenset({0})): 0.5, (2, frozenset({1, 4})): 0.5},
        )
        sampler = ExplicitScheduler(schedule, rng)
        seen = set()
        for _ in range(200):
            k, m, subset = sampler.sample()
            assert subset is not None
            assert len(subset) == m
            seen.add((k, subset))
        assert seen == {(1, frozenset({0})), (2, frozenset({1, 4}))}

    def test_single_atom_fast_path(self, five_channels, rng):
        schedule = ShareSchedule.singleton(five_channels, 3, [0, 1, 2])
        sampler = ExplicitScheduler(schedule, rng)
        assert sampler.sample() == (3, 3, frozenset({0, 1, 2}))

    def test_respects_probabilities(self, five_channels, rng):
        schedule = ShareSchedule(
            five_channels,
            {(1, frozenset({0})): 0.2, (1, frozenset({1})): 0.8},
        )
        sampler = ExplicitScheduler(schedule, rng)
        draws = [sampler.sample()[2] for _ in range(10000)]
        frac = sum(1 for s in draws if s == frozenset({1})) / len(draws)
        assert frac == pytest.approx(0.8, abs=0.02)

    def test_sampled_averages_converge(self, five_channels, rng):
        schedule = _three_pair_schedule(five_channels)
        sampler = ExplicitScheduler(schedule, rng)
        draws = [sampler.sample() for _ in range(20000)]
        assert np.mean([k for k, _, _ in draws]) == pytest.approx(schedule.kappa, abs=0.05)
        assert np.mean([m for _, m, _ in draws]) == pytest.approx(schedule.mu, abs=0.05)

    def test_draws_are_numpy_choice_draws(self, five_channels):
        schedule = _three_pair_schedule(five_channels)
        rng, twin = np.random.default_rng(2016), np.random.default_rng(2016)
        sampler = ExplicitScheduler(schedule, rng)
        picks = [sampler.sample() for _ in range(20000)]
        expected = _numpy_picks(list(schedule.support()), twin, 20000)
        assert picks == [(k, len(members), members) for k, members in expected]
        assert rng.bit_generator.state == twin.bit_generator.state
