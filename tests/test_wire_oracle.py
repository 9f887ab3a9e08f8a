"""``decode_share`` against the decoder oracle (``tests/wire_oracle.py``).

The production decoder parses a frame in one pass: one header unpack,
the extension offsets computed inline, the index and threshold checked
once, and both records built without their constructors.  The oracle
does it the slow way.  On every input drawn here -- garbage, truncations,
extensions, header-byte mutations and every version/flag combination of
frames with flow 0 and nonzero flows, with and without tags, with 0-, 1-
and 64-byte bodies -- the two must return equal records of the same
types, or raise :class:`WireFormatError` with the same message.  Any
other exception fails the test.
"""

import itertools

import numpy as np
import pytest

from repro.protocol.wire import TAG_SIZE, WireFormatError, decode_share, encode_share
from repro.sharing.base import Share
from tests import wire_oracle

TAG = bytes(range(0xA0, 0xA0 + TAG_SIZE))
FLOWS = (0, 6, 2**32 - 1)
BODY_SIZES = (0, 1, 64)


def outcome(decode, packet):
    """What ``decode`` makes of ``packet``: its records, or its error message."""
    try:
        header, share = decode(packet)
    except WireFormatError as exc:
        return ("error", str(exc))
    return ("ok", type(header), tuple(header), type(share), tuple(share))


def assert_same(packet):
    expected = outcome(wire_oracle.decode_share, packet)
    assert outcome(decode_share, packet) == expected, packet.hex()
    return expected[0]


def frames():
    """Valid frames of every layout: v1, v2 and v3 with and without a flow."""
    rng = np.random.default_rng(23)
    out = []
    for size, flow, tag in itertools.product(BODY_SIZES, FLOWS, (None, TAG)):
        for index, k, m in ((1, 1, 1), (2, 2, 3), (5, 3, 5), (255, 255, 255)):
            share = Share(index, rng.bytes(size), k, m)
            out.append(encode_share(2**40 + index, share, "shamir-gf256", flow=flow, tag=tag))
    return out


FRAMES = frames()


class TestDecoderMatchesOracle:
    def test_valid_frames(self):
        assert {assert_same(packet) for packet in FRAMES} == {"ok"}

    def test_garbage(self):
        rng = np.random.default_rng(1)
        for _ in range(4000):
            assert_same(rng.bytes(int(rng.integers(0, 90))))

    def test_garbage_behind_the_magic(self):
        # Past the magic check, so the version, flags and field checks run.
        rng = np.random.default_rng(2)
        for _ in range(6000):
            version = int(rng.choice([0, 1, 2, 3, 4, 255]))
            packet = b"RS" + bytes([version]) + rng.bytes(int(rng.integers(0, 90)))
            assert_same(packet)

    def test_every_truncation(self):
        outcomes = set()
        for packet in FRAMES:
            for cut in range(len(packet)):
                outcomes.add(assert_same(packet[:cut]))
        assert outcomes == {"ok", "error"}

    def test_extensions(self):
        rng = np.random.default_rng(3)
        for packet in FRAMES:
            for extra in (1, 3, 4, TAG_SIZE, 40):
                assert assert_same(packet + rng.bytes(extra)) == "ok"

    @pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 255])
    def test_every_flag_byte_under_every_version(self, version):
        for packet in FRAMES[::5]:
            for flags in range(256):
                mutated = bytearray(packet)
                mutated[2], mutated[15] = version, flags
                assert_same(bytes(mutated))

    def test_threshold_and_index_bytes(self):
        values = (0, 1, 2, 3, 5, 254, 255)
        for packet in FRAMES[::7]:
            for index, k, m in itertools.product(values, repeat=3):
                mutated = bytearray(packet)
                mutated[12:15] = bytes((index, k, m))
                assert_same(bytes(mutated))

    def test_random_header_byte_mutations(self):
        rng = np.random.default_rng(4)
        outcomes = set()
        for _ in range(20000):
            packet = bytearray(FRAMES[int(rng.integers(0, len(FRAMES)))])
            for _ in range(int(rng.integers(1, 4))):
                # The fixed header, the flow id and the tag span bytes 0..35.
                position = int(rng.integers(0, min(len(packet), 36)))
                packet[position] = int(rng.integers(0, 256))
            outcomes.add(assert_same(bytes(packet)))
        assert outcomes == {"ok", "error"}
