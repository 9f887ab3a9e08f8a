"""Byte-level attack primitives: framing preserved, determinism, forgery."""

import numpy as np
import pytest

from repro.adversary.active.primitives import (
    corrupt_any_packet,
    corrupt_share_packet,
    forge_share_packet,
    is_share,
    share_body_offset,
)
from repro.protocol.wire import (
    FLOW_HEADER_SIZE,
    HEADER_SIZE,
    TAG_SIZE,
    decode_share,
    encode_probe,
    encode_share,
)
from repro.sharing.shamir import ShamirScheme

scheme = ShamirScheme()

#: A stand-in MAC: the primitives locate the tag, they never verify it.
TAG = bytes(range(100, 100 + TAG_SIZE))


def make_share_packet(seq=7, secret=b"attack at dawn!!", k=2, m=4, flow=0, seed=3, tag=None):
    rng = np.random.default_rng(seed)
    share = scheme.split(secret, k, m, rng)[0]
    return encode_share(seq, share, scheme.name, flow=flow, tag=tag)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestRecognisers:
    def test_is_share(self, rng):
        assert is_share(make_share_packet())
        assert not is_share(encode_probe(0, 1))
        assert not is_share(b"")
        assert not is_share(b"\x00")

    def test_body_offset_v1(self):
        assert share_body_offset(make_share_packet(flow=0)) == HEADER_SIZE

    def test_body_offset_flow_header(self):
        assert share_body_offset(make_share_packet(flow=3)) == FLOW_HEADER_SIZE

    def test_body_offset_none_for_non_share(self):
        assert share_body_offset(encode_probe(0, 1)) is None

    def test_body_offset_none_for_truncated(self):
        assert share_body_offset(make_share_packet()[:10]) is None

    def test_body_offset_none_for_headerless_body(self):
        assert share_body_offset(make_share_packet()[:HEADER_SIZE]) is None

    @pytest.mark.parametrize("flow", [0, 3])
    def test_body_offset_skips_the_tag(self, flow):
        # Corrupting the MAC would only fail verification; the body is the
        # share itself.
        packet = make_share_packet(flow=flow, tag=TAG)
        offset = share_body_offset(packet)
        assert packet[offset - TAG_SIZE:offset] == TAG
        assert packet[offset:] == decode_share(packet)[1].data

    def test_body_offset_none_for_tag_without_body(self):
        packet = make_share_packet(flow=3, tag=TAG)
        assert share_body_offset(packet[:FLOW_HEADER_SIZE + TAG_SIZE]) is None


class TestCorruptShare:
    @pytest.mark.parametrize("mode", ["flip", "rewrite", "zero"])
    def test_framing_preserved(self, rng, mode):
        packet = make_share_packet()
        mutated = corrupt_share_packet(packet, rng, mode)
        assert mutated is not None and len(mutated) == len(packet)
        header, share = decode_share(packet)
        header2, share2 = decode_share(mutated)
        assert (header2.seq, header2.k, header2.m) == (header.seq, header.k, header.m)
        assert share2.index == share.index

    def test_flip_changes_exactly_one_body_byte(self, rng):
        packet = make_share_packet()
        mutated = corrupt_share_packet(packet, rng, "flip")
        diffs = [i for i, (a, b) in enumerate(zip(packet, mutated)) if a != b]
        assert len(diffs) == 1 and diffs[0] >= HEADER_SIZE

    def test_zero_mode_zeroes_body(self, rng):
        packet = make_share_packet()
        mutated = corrupt_share_packet(packet, rng, "zero")
        assert set(mutated[HEADER_SIZE:]) == {0}

    def test_non_share_returns_none(self, rng):
        assert corrupt_share_packet(encode_probe(1, 2), rng) is None

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ValueError, match="corrupt mode"):
            corrupt_share_packet(make_share_packet(), rng, "melt")

    def test_same_seed_same_corruption(self):
        packet = make_share_packet()
        a = corrupt_share_packet(packet, np.random.default_rng(5), "rewrite")
        b = corrupt_share_packet(packet, np.random.default_rng(5), "rewrite")
        assert a == b != packet


class TestCorruptAny:
    def test_flips_one_byte_anywhere(self, rng):
        packet = encode_probe(2, 77)
        mutated = corrupt_any_packet(packet, rng)
        assert len(mutated) == len(packet)
        assert sum(a != b for a, b in zip(packet, mutated)) == 1

    def test_empty_packet_returns_none(self, rng):
        assert corrupt_any_packet(b"", rng) is None


class TestForge:
    def test_forgery_decodes_with_template_geometry(self, rng):
        template = make_share_packet(seq=11, k=2, m=4)
        forged = forge_share_packet(template, rng)
        assert forged is not None
        t_header, t_share = decode_share(template)
        f_header, f_share = decode_share(forged)
        assert f_header.seq == t_header.seq  # tracking default: same symbol
        assert (f_header.k, f_header.m) == (t_header.k, t_header.m)
        assert 1 <= f_share.index <= t_header.m
        assert len(f_share.data) == len(t_share.data)

    def test_explicit_seq_and_index(self, rng):
        forged = forge_share_packet(make_share_packet(), rng, seq=123, index=3)
        header, share = decode_share(forged)
        assert header.seq == 123 and share.index == 3

    def test_flow_preserved(self, rng):
        forged = forge_share_packet(make_share_packet(flow=5), rng)
        header, _ = decode_share(forged)
        assert header.flow == 5

    def test_control_template_refused(self, rng):
        assert forge_share_packet(encode_probe(0, 1), rng) is None

    def test_garbage_template_refused(self, rng):
        assert forge_share_packet(b"\x52\x53" + b"\xff" * 6, rng) is None

    def test_same_seed_same_forgery(self):
        template = make_share_packet()
        a = forge_share_packet(template, np.random.default_rng(8))
        b = forge_share_packet(template, np.random.default_rng(8))
        assert a == b
