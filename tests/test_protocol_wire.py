"""The share wire format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.wire import (
    FLAG_AUTH,
    FLAG_FLOW,
    FLOW_HEADER_SIZE,
    HEADER_SIZE,
    MAX_FLOW,
    TAG_SIZE,
    ShareHeader,
    WireFormatError,
    decode_control,
    decode_share,
    encode_nack,
    encode_share,
    share_layout,
    share_packet_size,
)
from repro.sharing.base import Share


def make_share(index=2, data=b"payload", k=2, m=3):
    return Share(index=index, data=data, k=k, m=m)


class TestRoundtrip:
    def test_basic(self):
        share = make_share()
        packet = encode_share(77, share, "shamir-gf256")
        header, decoded = decode_share(packet)
        assert header.seq == 77
        assert header.index == 2
        assert header.k == 2
        assert header.m == 3
        assert header.scheme_name == "shamir-gf256"
        assert decoded.data == b"payload"

    def test_header_is_an_immutable_record(self):
        header, _ = decode_share(encode_share(9, make_share(), "shamir-gf256", flow=4))
        assert header == ShareHeader(1, 9, 2, 2, 3, flow=4)
        assert hash(header) == hash(ShareHeader(1, 9, 2, 2, 3, 4, None))
        assert repr(header) == (
            "ShareHeader(scheme_id=1, seq=9, index=2, k=2, m=3, flow=4, tag=None)"
        )
        with pytest.raises(AttributeError):
            header.seq = 10

    def test_packet_size(self):
        share = make_share(data=b"x" * 100)
        assert len(encode_share(0, share, "shamir-gf256")) == HEADER_SIZE + 100

    def test_empty_payload(self):
        share = make_share(data=b"")
        header, decoded = decode_share(encode_share(1, share, "xor-perfect"))
        assert decoded.data == b""
        assert header.scheme_name == "xor-perfect"

    def test_large_seq(self):
        share = make_share()
        header, _ = decode_share(encode_share(2**63, share, "shamir-gf256"))
        assert header.seq == 2**63

    @given(
        seq=st.integers(min_value=0, max_value=2**64 - 1),
        index=st.integers(min_value=1, max_value=255),
        k=st.integers(min_value=1, max_value=255),
        extra=st.integers(min_value=0, max_value=5),
        data=st.binary(max_size=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, seq, index, k, extra, data):
        m = min(k + extra, 255)
        index = min(index, m)
        share = Share(index=index, data=data, k=k, m=m)
        header, decoded = decode_share(encode_share(seq, share, "shamir-gf256"))
        assert (header.seq, header.index, header.k, header.m) == (seq, index, k, m)
        assert decoded.data == data


class TestErrors:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            encode_share(0, make_share(), "rot13")

    def test_seq_out_of_range(self):
        with pytest.raises(ValueError):
            encode_share(2**64, make_share(), "shamir-gf256")
        with pytest.raises(ValueError):
            encode_share(-1, make_share(), "shamir-gf256")

    def test_truncated_packet(self):
        with pytest.raises(WireFormatError):
            decode_share(b"\x00" * (HEADER_SIZE - 1))

    def test_bad_magic(self):
        packet = bytearray(encode_share(0, make_share(), "shamir-gf256"))
        packet[0] ^= 0xFF
        with pytest.raises(WireFormatError):
            decode_share(bytes(packet))

    def test_bad_version(self):
        packet = bytearray(encode_share(0, make_share(), "shamir-gf256"))
        packet[2] = 99
        with pytest.raises(WireFormatError):
            decode_share(bytes(packet))

    def test_invalid_share_fields(self):
        # Zero k in the header is rejected at Share construction.
        packet = bytearray(encode_share(0, make_share(), "shamir-gf256"))
        packet[13] = 0  # k field
        with pytest.raises(WireFormatError):
            decode_share(bytes(packet))

    @pytest.mark.parametrize("flow", [0, 5])
    @pytest.mark.parametrize("index", [4, 7, 255])
    def test_index_above_m_is_a_decode_error(self, flow, index):
        packet = bytearray(encode_share(0, make_share(index=3, m=3), "shamir-gf256", flow=flow))
        packet[12] = index  # index field; m stays 3
        with pytest.raises(WireFormatError, match=f"share index {index} outside 1..3"):
            decode_share(bytes(packet))

    @given(noise=st.binary(min_size=0, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_fuzz_never_crashes(self, noise):
        try:
            decode_share(noise)
        except WireFormatError:
            pass  # the only acceptable failure mode

    def test_unknown_scheme_id_decodes_with_label(self):
        packet = bytearray(encode_share(0, make_share(), "shamir-gf256"))
        packet[3] = 200  # scheme id
        header, _ = decode_share(bytes(packet))
        assert "unknown" in header.scheme_name


class TestFlows:
    """The version 2 flow extension (fleet multiplexing)."""

    def test_flow_zero_is_byte_identical_to_legacy_encoding(self):
        """Single-flow senders must keep emitting the exact version 1
        bytes -- captures, goldens and overhead accounting depend on it."""
        share = make_share()
        legacy = encode_share(9, share, "shamir-gf256")
        explicit = encode_share(9, share, "shamir-gf256", flow=0)
        assert explicit == legacy
        assert legacy[2] == 1  # version byte
        assert len(legacy) == HEADER_SIZE + len(share.data)

    def test_nonzero_flow_roundtrip(self):
        share = make_share(data=b"x" * 33)
        packet = encode_share(7, share, "shamir-gf256", flow=0xDEADBEEF)
        assert packet[2] == 2  # version byte
        assert packet[15] & FLAG_FLOW
        assert len(packet) == FLOW_HEADER_SIZE + 33
        assert len(packet) == share_packet_size(33, flow=0xDEADBEEF)
        header, decoded = decode_share(packet)
        assert header.flow == 0xDEADBEEF
        assert (header.seq, header.index, header.k, header.m) == (7, 2, 2, 3)
        assert decoded.data == share.data

    def test_v1_packets_decode_as_flow_zero(self):
        header, _ = decode_share(encode_share(1, make_share(), "shamir-gf256"))
        assert header.flow == 0

    def test_v2_without_flow_flag_means_flow_zero(self):
        packet = bytearray(encode_share(1, make_share(), "shamir-gf256"))
        packet[2] = 2  # bump version, flags stay 0
        header, decoded = decode_share(bytes(packet))
        assert header.flow == 0
        assert decoded.data == b"payload"

    def test_unknown_v2_flag_bits_are_ignored(self):
        packet = bytearray(encode_share(5, make_share(), "shamir-gf256", flow=42))
        packet[15] |= 0x80  # a future extension bit
        header, decoded = decode_share(bytes(packet))
        assert header.flow == 42
        assert decoded.data == b"payload"

    def test_flow_out_of_range(self):
        with pytest.raises(ValueError):
            encode_share(0, make_share(), "shamir-gf256", flow=MAX_FLOW + 1)
        with pytest.raises(ValueError):
            encode_share(0, make_share(), "shamir-gf256", flow=-1)

    def test_max_flow_roundtrip(self):
        header, _ = decode_share(
            encode_share(0, make_share(), "shamir-gf256", flow=MAX_FLOW)
        )
        assert header.flow == MAX_FLOW

    def test_truncated_flow_extension(self):
        packet = encode_share(0, make_share(data=b""), "shamir-gf256", flow=3)
        with pytest.raises(WireFormatError):
            decode_share(packet[:HEADER_SIZE + 2])

    def test_nack_with_flow_roundtrip(self):
        packet = encode_nack(31, 3, 5, have=[1, 4], flow=77)
        message = decode_control(packet)
        assert message.flow == 77
        assert (message.seq, message.k, message.m) == (31, 3, 5)
        assert message.have == (1, 4)

    def test_flow_zero_nack_is_byte_identical_to_legacy(self):
        legacy = encode_nack(31, 3, 5, have=[1, 4])
        explicit = encode_nack(31, 3, 5, have=[1, 4], flow=0)
        assert explicit == legacy
        assert legacy[2] == 1  # version byte
        assert decode_control(legacy).flow == 0

    def test_nack_flow_out_of_range(self):
        with pytest.raises(ValueError):
            encode_nack(0, 2, 3, have=[1], flow=MAX_FLOW + 1)


class TestShareLayout:
    """``share_layout`` is the one reading of a frame's extensions."""

    TAG = bytes(range(TAG_SIZE))

    @pytest.mark.parametrize(
        "version,flags,expected",
        [
            (1, 0, (None, None, HEADER_SIZE)),
            # Extension flags mean nothing below the version that defines them.
            (1, FLAG_FLOW | FLAG_AUTH, (None, None, HEADER_SIZE)),
            (2, 0, (None, None, HEADER_SIZE)),
            (2, FLAG_FLOW, (HEADER_SIZE, None, FLOW_HEADER_SIZE)),
            (2, FLAG_FLOW | FLAG_AUTH, (HEADER_SIZE, None, FLOW_HEADER_SIZE)),
            (3, FLAG_AUTH, (None, HEADER_SIZE, HEADER_SIZE + TAG_SIZE)),
            (
                3,
                FLAG_FLOW | FLAG_AUTH,
                (HEADER_SIZE, FLOW_HEADER_SIZE, FLOW_HEADER_SIZE + TAG_SIZE),
            ),
        ],
    )
    def test_offsets(self, version, flags, expected):
        assert share_layout(version, flags) == expected

    @pytest.mark.parametrize("flow", [0, 9])
    @pytest.mark.parametrize("tagged", [False, True])
    def test_offsets_locate_the_encoded_fields(self, flow, tagged):
        share = make_share()
        tag = self.TAG if tagged else None
        packet = encode_share(7, share, "shamir-gf256", flow=flow, tag=tag)
        flow_at, tag_at, body_at = share_layout(packet[2], packet[15])
        assert packet[body_at:] == share.data
        if flow == 0:
            assert flow_at is None
        else:
            assert int.from_bytes(packet[flow_at:flow_at + 4], "big") == flow
        if tagged:
            assert packet[tag_at:body_at] == self.TAG
        else:
            assert tag_at is None

    @pytest.mark.parametrize("flow", [0, 3])
    def test_truncated_tag_extension(self, flow):
        packet = encode_share(0, make_share(data=b""), "shamir-gf256", flow=flow, tag=self.TAG)
        with pytest.raises(WireFormatError):
            decode_share(packet[:-1])
