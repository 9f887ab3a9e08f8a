"""The authenticated-share layer: keys, tags, wire carriage, redaction.

Unit coverage for :mod:`repro.protocol.auth` (docs/AUTH.md): key
derivation is deterministic and shard-order-free, per-flow keys isolate
tenants, tags bind a share to its exact slot (scheme, seq, index, k, m,
flow), verification is total over malformed tags, and no repr ever shows
key material.  Plus the wire contract: tagged frames roundtrip through
version 3, and auth-off frames stay byte-identical to the pre-auth
goldens pinned here as hex.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.protocol.auth import (
    AuthConfig,
    ShareAuthenticator,
    derive_flow_key,
    derive_root_key,
)
from repro.protocol.auth.keys import MAX_KEY_SIZE, MIN_KEY_SIZE
from repro.protocol.wire import SCHEME_IDS, TAG_SIZE, decode_share, encode_share
from repro.sharing.base import Share
from repro.sharing.shamir import ShamirScheme
from tests.auth_oracle import compute_tag

scheme = ShamirScheme()
SCHEME_ID = SCHEME_IDS[scheme.name]

ROOT = derive_root_key(7)


def make_share(index=2, data=bytes(range(16)), k=3, m=5):
    return Share(index=index, data=data, k=k, m=m)


class TestKeyDerivation:
    def test_root_key_is_deterministic(self):
        assert derive_root_key(7) == derive_root_key(7)
        assert len(derive_root_key(7)) == 32

    def test_root_key_depends_on_seed(self):
        assert derive_root_key(7) != derive_root_key(8)

    def test_flow_key_is_deterministic_and_order_free(self):
        # Building flow 3's keyed state before or after flow 1's yields
        # the same states: derivation depends only on the (root, flow)
        # identity, which is what makes fleet shards agree (docs/AUTH.md).
        # A state's key cannot be read back, so compare what it digests.
        states_a = AuthConfig(root_key=ROOT).flow_states
        states_b = AuthConfig(root_key=ROOT).flow_states
        first = [states_a[flow].copy().digest() for flow in (1, 3)]
        second = [states_b[flow].copy().digest() for flow in (3, 1)]
        assert first == second[::-1]
        keyed = hashlib.blake2b(key=derive_flow_key(ROOT, 1), digest_size=TAG_SIZE)
        assert states_a[1].copy().digest() == keyed.digest()

    def test_flow_keys_isolate_flows(self):
        keys = {derive_flow_key(ROOT, flow) for flow in range(16)}
        assert len(keys) == 16
        assert ROOT not in keys

    def test_flow_keys_isolate_roots(self):
        assert derive_flow_key(ROOT, 1) != derive_flow_key(derive_root_key(8), 1)

    def test_key_length_bounds(self):
        with pytest.raises(ValueError):
            derive_flow_key(b"x" * (MIN_KEY_SIZE - 1), 0)
        with pytest.raises(ValueError):
            derive_flow_key(b"x" * (MAX_KEY_SIZE + 1), 0)

    def test_key_type_checked(self):
        with pytest.raises(TypeError):
            derive_flow_key("not-bytes" * 4, 0)

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            derive_flow_key(ROOT, -1)


class TestAuthConfig:
    def test_rejects_short_root_key(self):
        with pytest.raises(ValueError):
            AuthConfig(root_key=b"short")

    def test_repr_redacts_root_key(self):
        text = repr(AuthConfig(root_key=ROOT))
        assert ROOT.hex() not in text
        assert "32 bytes" in text

    def test_populated_config_repr_redacts_and_pickles_without_states(self):
        config = AuthConfig(root_key=ROOT)
        ShareAuthenticator(config).tag(4, 0, make_share(), SCHEME_ID)
        assert list(config.flow_states) == [4]
        for text in (repr(config), repr(config.flow_states)):
            assert ROOT.hex() not in text
            assert derive_flow_key(ROOT, 4).hex() not in text
        assert repr(config) == "AuthConfig(root_key=<32 bytes>)"
        copy = pickle.loads(pickle.dumps(config))
        assert copy.root_key == ROOT
        assert dict(copy.flow_states) == {}
        assert ShareAuthenticator(copy).tag(4, 0, make_share(), SCHEME_ID) == (
            ShareAuthenticator(config).tag(4, 0, make_share(), SCHEME_ID)
        )

    def test_authenticator_repr_redacts(self):
        auth = ShareAuthenticator(AuthConfig(root_key=ROOT))
        assert ROOT.hex() not in repr(auth)


class TestTagging:
    def setup_method(self):
        self.auth = ShareAuthenticator(AuthConfig(root_key=ROOT))

    def test_tag_verify_roundtrip(self):
        share = make_share()
        tag = self.auth.tag(0, 7, share, SCHEME_ID)
        assert len(tag) == TAG_SIZE
        assert self.auth.verify(0, 7, share, SCHEME_ID, tag)

    def test_tag_matches_compute_tag(self):
        share = make_share()
        expected = compute_tag(
            derive_flow_key(ROOT, 5), SCHEME_ID, 7,
            share.index, share.k, share.m, 5, share.data,
        )
        assert self.auth.tag(5, 7, share, SCHEME_ID) == expected

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: (1, 7, s, SCHEME_ID),                      # wrong flow
            lambda s: (0, 8, s, SCHEME_ID),                      # wrong seq
            lambda s: (0, 7, s, SCHEME_ID + 1),                  # wrong scheme
            lambda s: (0, 7, make_share(index=3), SCHEME_ID),    # replanted index
            lambda s: (0, 7, make_share(k=2), SCHEME_ID),        # altered k
            lambda s: (0, 7, make_share(m=6), SCHEME_ID),        # altered m
            lambda s: (0, 7, make_share(data=b"\xff" * 16), SCHEME_ID),  # body
        ],
    )
    def test_tag_binds_the_slot(self, mutate):
        share = make_share()
        tag = self.auth.tag(0, 7, share, SCHEME_ID)
        assert not self.auth.verify(*mutate(share), tag)

    def test_cross_tenant_tags_do_not_verify(self):
        # A share validly tagged under tenant flow 1 authenticates nothing
        # for flow 2: per-flow keys are the isolation boundary.
        share = make_share()
        tag = self.auth.tag(1, 7, share, SCHEME_ID)
        assert not self.auth.verify(2, 7, share, SCHEME_ID, tag)

    def test_wrong_root_key_fails(self):
        share = make_share()
        tag = self.auth.tag(0, 7, share, SCHEME_ID)
        other = ShareAuthenticator(AuthConfig(root_key=derive_root_key(8)))
        assert not other.verify(0, 7, share, SCHEME_ID, tag)

    def test_malformed_tags_fail_closed(self):
        share = make_share()
        assert not self.auth.verify(0, 7, share, SCHEME_ID, None)
        assert not self.auth.verify(0, 7, share, SCHEME_ID, b"")
        assert not self.auth.verify(0, 7, share, SCHEME_ID, b"\x00" * (TAG_SIZE - 1))
        assert not self.auth.verify(0, 7, share, SCHEME_ID, b"\x00" * (TAG_SIZE + 1))

    def test_flipping_any_tag_bit_fails(self):
        share = make_share()
        tag = bytearray(self.auth.tag(0, 7, share, SCHEME_ID))
        for position in range(TAG_SIZE):
            tag[position] ^= 0x01
            assert not self.auth.verify(0, 7, share, SCHEME_ID, bytes(tag))
            tag[position] ^= 0x01


class TestWireCarriage:
    def setup_method(self):
        self.auth = ShareAuthenticator(AuthConfig(root_key=ROOT))

    @pytest.mark.parametrize("flow", [0, 9])
    def test_tagged_frame_roundtrips_and_verifies(self, flow):
        rng = np.random.default_rng(3)
        for seq, share in enumerate(scheme.split(b"wire carriage of tags!", 3, 5, rng)):
            tag = self.auth.tag(flow, seq, share, SCHEME_ID)
            packet = encode_share(seq, share, scheme.name, flow=flow, tag=tag)
            header, decoded = decode_share(packet)
            assert header.tag == tag
            assert header.flow == flow
            assert self.auth.verify(
                header.flow, header.seq, decoded, header.scheme_id, header.tag
            )

    def test_tag_costs_exactly_tag_size_bytes(self):
        share = make_share()
        tag = self.auth.tag(0, 7, share, SCHEME_ID)
        plain = encode_share(7, share, scheme.name)
        tagged = encode_share(7, share, scheme.name, tag=tag)
        assert len(tagged) == len(plain) + TAG_SIZE

    def test_auth_off_frames_match_pre_auth_goldens(self):
        # The acceptance pin: arming nobody means changing nothing.  These
        # hex strings are the exact pre-auth encodings (v1 flow 0, v2
        # nonzero flow) of a fixed share; auth-off senders must still emit
        # them byte for byte.
        share = make_share()
        assert encode_share(7, share, scheme.name).hex() == (
            "52530101000000000000000702030500"
            "000102030405060708090a0b0c0d0e0f"
        )
        assert encode_share(7, share, scheme.name, flow=9).hex() == (
            "5253020100000000000000070203050100000009"
            "000102030405060708090a0b0c0d0e0f"
        )
