"""Cross-implementation consistency checks.

The repository often contains two independent routes to the same quantity
(a fast production path and a reference path built on different machinery).
These tests pin them against each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.gf256 import GF256_FIELD
from repro.gf.poly import evaluate
from repro.sharing.shamir import ShamirScheme
from tests.sharing_oracle import lagrange_interpolate_at


class TestShamirAgainstGenericPolynomials:
    """The vectorised GF(256) Shamir vs generic Horner and Lagrange code."""

    @given(
        secret_byte=st.integers(0, 255),
        k=st.integers(1, 5),
        extra=st.integers(0, 3),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_share_bytes_are_polynomial_evaluations(self, secret_byte, k, extra, seed):
        m = k + extra
        scheme = ShamirScheme()
        shares = scheme.split(bytes([secret_byte]), k, m, np.random.default_rng(seed))
        # Interpolate the byte through generic Lagrange: the constant term
        # must be the secret, and every share byte must lie on one curve.
        points = [(share.index, share.data[0]) for share in shares[:k]]
        assert lagrange_interpolate_at(GF256_FIELD, points, 0) == secret_byte
        for share in shares:
            assert (
                lagrange_interpolate_at(GF256_FIELD, points, share.index)
                == share.data[0]
            )

    @given(
        coeffs=st.lists(st.integers(0, 255), min_size=1, max_size=5),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_reconstruct_equals_generic_interpolation(self, coeffs, seed):
        # Build shares directly from a known polynomial via generic
        # evaluation, then check the production reconstructor agrees.
        from repro.sharing.base import Share

        k = len(coeffs)
        m = k + 2
        shares = [
            Share(
                index=x,
                data=bytes([evaluate(GF256_FIELD, coeffs, x)]),
                k=k,
                m=m,
            )
            for x in range(1, m + 1)
        ]
        scheme = ShamirScheme()
        assert scheme.reconstruct(shares[:k]) == bytes([coeffs[0]])
        del seed


class TestDelayFormulaAgainstClosedForm:
    """subset_delay's subset sum vs the paper's D_C ordering formula."""

    @given(
        losses=st.lists(st.floats(0.0, 0.9), min_size=2, max_size=5),
        delays=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_k1_delay_equals_first_arrival_formula(self, losses, delays):
        from repro.core.channel import ChannelSet
        from repro.core.optimal import min_delay
        from repro.core.properties import subset_delay

        n = min(len(losses), len(delays))
        channels = ChannelSet.from_vectors(
            risks=[0.0] * n, losses=losses[:n], delays=delays[:n], rates=[1.0] * n
        )
        assert min_delay(channels)[0] == pytest.approx(
            subset_delay(channels, 1, range(n)), abs=1e-9
        )


class TestUsageIdentities:
    """Schedule-level identities that tie independent code paths together."""

    @given(
        rates=st.lists(st.floats(0.5, 50.0), min_size=2, max_size=5),
        mu_frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_lp_schedule_usage_sums_to_mu(self, rates, mu_frac):
        from repro.core.channel import ChannelSet
        from repro.core.program import Objective, optimal_schedule

        n = len(rates)
        channels = ChannelSet.from_vectors(
            risks=[0.1] * n, losses=[0.01] * n, delays=[0.1] * n, rates=rates
        )
        mu = 1.0 + mu_frac * (n - 1)
        schedule = optimal_schedule(
            channels, Objective.PRIVACY, 1.0, mu, at_max_rate=True
        )
        # Identity: sum of per-channel usages is exactly mu (Theorem 3).
        assert schedule.channel_usage().sum() == pytest.approx(mu, abs=1e-6)

    @given(rates=st.lists(st.floats(0.5, 50.0), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_mptcp_schedule_rate_identity(self, rates):
        from repro.core.channel import ChannelSet
        from repro.core.rate import max_rate, rate_maximizing_schedule

        n = len(rates)
        channels = ChannelSet.from_vectors(
            risks=[0.0] * n, losses=[0.0] * n, delays=[0.0] * n, rates=rates
        )
        schedule = rate_maximizing_schedule(channels)
        assert schedule.max_symbol_rate() == pytest.approx(max_rate(channels), rel=1e-9)
