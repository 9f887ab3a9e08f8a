"""Share tags against the one-shot keyed-MAC oracle (``tests/auth_oracle.py``).

The authenticator tags a copy of a per-flow keyed state that its
:class:`AuthConfig` builds on first use and shares with every other
authenticator on that config.  None of that may show in a tag: every tag
must equal the one-shot keyed BLAKE2b of docs/AUTH.md over the flow key
``derive_flow_key(root_key, flow)``, whichever flows were tagged first,
on whichever authenticator or config.
"""

import itertools

import numpy as np
import pytest

from repro.protocol.auth import (
    AuthConfig,
    ShareAuthenticator,
    derive_flow_key,
    derive_root_key,
)
from repro.protocol.wire import SCHEME_IDS, TAG_SIZE
from repro.sharing.base import Share
from repro.sharing.shamir import ShamirScheme
from tests.auth_oracle import compute_tag

ROOT = derive_root_key(11)
SCHEME_ID = SCHEME_IDS["shamir-gf256"]
FLOWS = (0, 1, 7, 2**32 - 1)


def oracle(root_key, flow, seq, share, scheme_id=SCHEME_ID):
    return compute_tag(
        derive_flow_key(root_key, flow), scheme_id, seq,
        share.index, share.k, share.m, flow, share.data,
    )


def shares(count=12, seed=3):
    """Shares of assorted geometry and size, 0-byte and 64-byte bodies included."""
    rng = np.random.default_rng(seed)
    out = []
    for position in range(count):
        k = 1 + position % 3
        m = k + position % 2
        size = (0, 1, 16, 64)[position % 4]
        out += ShamirScheme().split(rng.bytes(size), k, m, rng)
    return out


class TestTagMatchesOracle:
    @pytest.mark.parametrize("flow", FLOWS)
    def test_every_flow(self, flow):
        auth = ShareAuthenticator(AuthConfig(root_key=ROOT))
        for seq, share in enumerate(shares()):
            assert auth.tag(flow, seq, share, SCHEME_ID) == oracle(ROOT, flow, seq, share)

    def test_every_bound_field_and_extreme(self):
        auth = ShareAuthenticator(AuthConfig(root_key=ROOT))
        share = Share(255, b"\x00" * 5, 255, 255)
        for seq, scheme_id in itertools.product((0, 1, 2**64 - 1), (1, 2, 32)):
            assert auth.tag(9, seq, share, scheme_id) == oracle(ROOT, 9, seq, share, scheme_id)

    @pytest.mark.parametrize("order", list(itertools.permutations(FLOWS[:3])))
    def test_any_order_of_first_use(self, order):
        auth = ShareAuthenticator(AuthConfig(root_key=ROOT))
        share = shares(1)[0]
        tags = {flow: auth.tag(flow, 5, share, SCHEME_ID) for flow in order}
        # Each flow again, after the others built their states.
        for flow in reversed(order):
            assert auth.tag(flow, 5, share, SCHEME_ID) == tags[flow]
            assert tags[flow] == oracle(ROOT, flow, 5, share)
        assert len(set(tags.values())) == len(order)

    def test_two_authenticators_on_one_config(self):
        config = AuthConfig(root_key=ROOT)
        sender, receiver = ShareAuthenticator(config), ShareAuthenticator(config)
        for seq, share in enumerate(shares()):
            flow = FLOWS[seq % len(FLOWS)]
            tag = sender.tag(flow, seq, share, SCHEME_ID)
            assert tag == oracle(ROOT, flow, seq, share)
            assert receiver.verify(flow, seq, share, SCHEME_ID, tag)
        # One keyed state per flow, shared by both ends.
        assert sorted(config.flow_states) == sorted(FLOWS)

    def test_two_configs_with_one_root_key(self):
        first = ShareAuthenticator(AuthConfig(root_key=ROOT))
        second = ShareAuthenticator(AuthConfig(root_key=bytes(ROOT)))
        for seq, share in enumerate(shares()):
            flow = FLOWS[seq % len(FLOWS)]
            tag = first.tag(flow, seq, share, SCHEME_ID)
            assert second.tag(flow, seq, share, SCHEME_ID) == tag
            assert second.verify(flow, seq, share, SCHEME_ID, tag)

    def test_a_different_root_key_gives_a_different_tag(self):
        other_root = derive_root_key(12)
        auth = ShareAuthenticator(AuthConfig(root_key=ROOT))
        other = ShareAuthenticator(AuthConfig(root_key=other_root))
        for seq, share in enumerate(shares()):
            flow = FLOWS[seq % len(FLOWS)]
            tag = auth.tag(flow, seq, share, SCHEME_ID)
            assert other.tag(flow, seq, share, SCHEME_ID) == oracle(other_root, flow, seq, share)
            assert other.tag(flow, seq, share, SCHEME_ID) != tag
            assert not other.verify(flow, seq, share, SCHEME_ID, tag)

    def test_tagging_leaves_the_stored_state_unchanged(self):
        config = AuthConfig(root_key=ROOT)
        auth = ShareAuthenticator(config)
        share = shares(1)[0]
        auth.tag(3, 0, share, SCHEME_ID)
        before = config.flow_states[3].copy().digest()
        for seq in range(5):
            auth.verify(3, seq, share, SCHEME_ID, b"\x00" * TAG_SIZE)
            auth.tag(3, seq, share, SCHEME_ID)
        assert config.flow_states[3].copy().digest() == before
        assert auth.tag(3, 0, share, SCHEME_ID) == oracle(ROOT, 3, 0, share)
