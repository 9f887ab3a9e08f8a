"""Authenticated shares under active attack: the end-to-end guarantee.

With ``auth=True`` armed in :func:`run_under_attack`, every share carries
a keyed MAC, bad-tag shares are dropped before reassembly as *erasures*,
and robust decoding runs at the full ``m - k`` erasure radius.  The
properties here are the ones docs/ADVERSARY.md now claims:

* **unconditional detection** -- under every canonical scenario, zero
  silently-accepted wrong payloads (for forgery/corruption this no longer
  depends on redundancy arithmetic, only on the MAC assumption);
* **the erasure payoff** -- the same corruption storm that saturates
  unique decoding is survived when failed positions are located;
* **verified-failure feedback** -- per-channel auth-failure attribution
  reaches the resilience layer's health monitor and quarantines the
  forgery-heavy channel;
* **determinism** -- same-seed auth runs replay byte-identically.
"""

import hashlib
import json

import pytest

from repro.adversary.active import CANONICAL_ATTACKS, canonical_attack, run_under_attack

START, STOP = 4.0, 24.0
DURATION = 20.0


def run(name, auth, seed=7, resilience=False, **overrides):
    plan = canonical_attack(name, START, STOP, **overrides)
    return run_under_attack(
        plan, duration=DURATION, seed=seed, auth=auth, resilience=resilience
    )


class TestUnconditionalDetection:
    @pytest.mark.parametrize("name", sorted(CANONICAL_ATTACKS))
    def test_no_silent_acceptance_under_any_canonical_scenario(self, name):
        row = run(name, auth=True)
        assert row["auth_armed"] is True
        assert row["wrong_payloads"] == 0
        assert row["kappa_floor_held"]

    def test_forged_injection_is_detected_not_absorbed(self):
        row = run("forged_injection", auth=True)
        # Every forged share fails verification (the forger has no key --
        # copying a live tag onto a different body is the strongest
        # keyless move and still fails the slot binding).
        assert row["receiver"]["auth_failed_shares"] > 0
        assert row["wrong_payloads"] == 0
        assert row["attack"]["stats"]["shares_forged"] > 0

    def test_targeted_corruption_delivers_everything(self):
        row = run("targeted_corruption", auth=True)
        # width=2 corrupted channels sit inside the erasure radius
        # m - k = 2 of the default (κ=2, µ=4) geometry, so detection is
        # also *recovery*: nothing wrong and nothing lost.
        assert row["wrong_payloads"] == 0
        assert row["delivered"] == row["transmitted"]

    def test_auth_failures_attribute_to_the_attacked_channel(self):
        row = run("corruption_storm", auth=True, channel=1, rate=1.0, mode="rewrite")
        assert row["wrong_payloads"] == 0
        assert set(row["auth_fail_by_channel"]) == {"1"}


class TestErasurePayoff:
    def test_storm_survived_at_the_erasure_radius(self):
        # An aggressive storm on two channels: unique decoding tolerates
        # floor((4-2)/2) = 1 corrupted share per symbol, erasure decoding
        # tolerates 2.  Auth must deliver strictly more than unauth.
        overrides = dict(rate=1.0, mode="rewrite")
        unauth = run("corruption_storm", auth=False, **overrides)
        auth = run("corruption_storm", auth=True, **overrides)
        assert auth["wrong_payloads"] == 0
        assert unauth["wrong_payloads"] == 0  # robust decode already held
        assert auth["delivered"] > unauth["delivered"]

    def test_verified_shares_counted(self):
        row = run("corruption_storm", auth=True)
        receiver = row["receiver"]
        assert receiver["auth_verified_shares"] > 0
        assert receiver["auth_failed_shares"] > 0
        assert receiver["auth_missing_shares"] == 0  # sender tags everything
        # Conservation: every share the receiver judged was tagged once at
        # the sender (the testbed is lossless; <= absorbs in-flight shares
        # cut off at the drain horizon).
        judged = receiver["auth_verified_shares"] + receiver["auth_failed_shares"]
        assert judged <= row["sender"]["auth_tagged_shares"]


class TestVerifiedFailureFeedback:
    def test_forgery_heavy_channel_is_quarantined(self):
        # Unauth, forged shares that collide as duplicates or decode fine
        # are invisible to loss accounting; with auth every one of them is
        # *verified* bad and folds into the health monitor's uselessness
        # EWMA, so the channel crosses the suspicion threshold.
        row = run(
            "forged_injection", auth=True, resilience=True, channel=2, rate=8.0
        )
        resilience = row["resilience"]
        assert resilience["quarantines"] >= 1
        assert any(
            t["channel"] == 2 and t["target"] == "quarantined"
            for t in resilience["transitions"]
        )
        assert row["wrong_payloads"] == 0


class TestRepairReTagging:
    def test_repaired_shares_verify_and_recover_at_k_equals_m(self):
        # κ = µ = 3 with a storm on one channel: each hit symbol holds
        # 2 verified shares < k, times out, NACKs, and the repair sender
        # re-tags the retransmission per flow.  If repairs went out
        # untagged (or tagged under the wrong slot) they would fail
        # verification and recovery would be zero.
        plan = canonical_attack(
            "corruption_storm", START, 14.0, rate=0.5, mode="rewrite", channel=1
        )
        row = run_under_attack(
            plan, kappa=3.0, mu=3.0, tolerance=1, duration=DURATION, seed=7,
            auth=True, resilience=True,
        )
        resilience = row["resilience"]
        assert resilience["nacks_received"] > 0
        assert resilience["repair_shares_sent"] > 0
        assert row["receiver"]["repair_recovered"] == resilience["nacks_received"]
        assert row["wrong_payloads"] == 0
        assert row["delivered"] == row["transmitted"]


class TestResiliencePins:
    """The full row with resilience and auth armed, pinned by SHA-256 of
    its sorted-key JSON: degraded/masked failover under the replay flood,
    masked/restored under the targeted partition."""

    @pytest.mark.parametrize(
        "name,modes,digest",
        [
            ("replay_flood", {"degraded", "masked", "restored"},
             "27cae8359b0880177ef81005dc28a1d7e26a1f9dd2e7e4b707764d2e5be096be"),
            ("targeted_partition", {"masked", "restored"},
             "8e806510d38ba2278020005f21f5259d71c986286626d0c99ccb92aa15e7c610"),
        ],
    )
    def test_row_digest(self, name, modes, digest):
        row = run(name, auth=True, resilience=True)
        assert set(row["resilience"]["failover_modes"]) == modes
        text = json.dumps(row, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDeterminism:
    def test_same_seed_auth_replay_is_byte_identical(self):
        first = run("corruption_storm", auth=True, seed=11)
        second = run("corruption_storm", auth=True, seed=11)
        assert first == second

    def test_auth_rows_differ_only_deterministically_across_seeds(self):
        assert run("corruption_storm", auth=True, seed=11)["digest"] != run(
            "corruption_storm", auth=True, seed=12
        )["digest"]

    def test_unauth_rows_keep_zero_auth_counters(self):
        row = run("corruption_storm", auth=False)
        assert row["auth_armed"] is False
        assert row["sender"]["auth_tagged_shares"] == 0
        assert row["receiver"]["auth_verified_shares"] == 0
        assert row["receiver"]["auth_failed_shares"] == 0
        assert row["auth_fail_by_channel"] == {}
