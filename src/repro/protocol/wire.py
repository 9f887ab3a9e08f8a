"""Wire format for share packets and resilience control messages.

Each share travels in a fixed 16-byte header followed by the share payload.
The header carries everything the receiver's reassembly buffer needs to
group shares (symbol sequence number), decide completeness (k), and pick
the reconstruction routine (scheme id, share index):

======  ====  =====================================================
offset  size  field
======  ====  =====================================================
0       2     magic (0x5253, "RS")
2       1     version (currently 1)
3       1     scheme id (1 = shamir-gf256, 2 = xor-perfect, 3 = blakley)
4       8     symbol sequence number (big-endian)
12      1     share index (1..m)
13      1     threshold k
14      1     multiplicity m
15      1     flags (reserved, zero)
======  ====  =====================================================

The 16-byte header over a 1250-byte symbol is the protocol's intrinsic
~1.3% rate overhead; together with scheduling slack it accounts for the
"within 3-4% of optimal" gap the paper reports.

**Flows (version 2).**  The fleet workload multiplexes many independent
secret streams ("flows", one per tenant stream) over the same channels,
so shares of different flows must never be mixed in one reassembly group.
A share of a non-default flow is carried in a *version 2* packet: the
``FLAG_FLOW`` bit is set in the flags byte and a 4-byte big-endian flow id
follows the fixed header (header total 20 bytes).  Flow 0 is the default
single-flow stream and is always encoded as a version 1 packet --
byte-identical to what pre-flow senders emitted -- so single-flow captures,
goldens and stats keep their exact shape.  Decoding is version-tolerant:
version 1 packets mean flow 0, version 2 packets without ``FLAG_FLOW``
also mean flow 0, and unknown flag bits in version 2 are ignored rather
than rejected (a version 2 parser skips extensions it knows the length
of; it never guesses at unknown ones, which is why new extensions must
bump the version).

**Authentication (version 3).**  An authenticated share carries a keyed
MAC over the header fields and the share body (BLAKE2b in keyed mode,
truncated to :data:`TAG_SIZE` bytes -- see :mod:`repro.protocol.auth`).
The ``FLAG_AUTH`` bit is set in the flags byte and the tag follows the
flow extension (or the fixed header when there is none).  Extension
order is fixed: flow id first, tag second.  Unauthenticated frames are
encoded exactly as before -- flow 0 stays version 1 and nonzero flows
stay version 2, byte-identical to pre-auth senders -- so goldens and
captures keep their exact shape; only tagged frames bump to version 3.
Decoding stays version-tolerant: a version 3 packet without
``FLAG_AUTH`` simply has no tag, and unknown flag bits in version 3 are
ignored just as in version 2.

The resilience layer (:mod:`repro.protocol.resilience`) adds small
*control* packets under a distinct magic (0x5243, "RC") so they can never
be confused with share traffic:

* ``PROBE``/``PROBE_ACK`` -- liveness probes that gate reinstatement of a
  quarantined channel (``>HBBBQ``: magic, version, type, channel, nonce).
* ``NACK`` -- the receiver's bounded repair request for a symbol that hit
  timeout eviction with ``1 <= received < k`` shares (``>HBBQBBB`` plus
  one byte per already-held share index).

Control packets carry share *indices*, never share material, so an
eavesdropper on fewer than k channels learns nothing new from them (see
docs/RESILIENCE.md for the privacy argument).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Tuple

from repro.sharing.base import Share

#: Total header size in bytes (version 1 / flow 0).
HEADER_SIZE = 16
#: Header size of a version 2 packet carrying the flow extension.
FLOW_HEADER_SIZE = 20

_MAGIC = 0x5253
#: Public alias of the share-packet magic (0x5253, "RS") for tooling that
#: classifies raw packets (e.g. the active-adversary primitives).
SHARE_MAGIC = _MAGIC
_VERSION = 1
_VERSION_FLOW = 2
_VERSION_AUTH = 3
#: Flags bit: a 4-byte big-endian flow id follows the fixed header.
FLAG_FLOW = 0x01
#: Flags bit (version 3): a :data:`TAG_SIZE`-byte keyed MAC follows the
#: flow extension (or the fixed header when there is none).
FLAG_AUTH = 0x02
#: Bytes of truncated keyed-BLAKE2b tag carried by an authenticated
#: frame (see :mod:`repro.protocol.auth` for the tag construction).
TAG_SIZE = 16
_STRUCT = struct.Struct(">HBBQBBBB")
_FLOW_STRUCT = struct.Struct(">I")
#: The whole header of each tagged or flow-carrying layout, packed in one
#: call: the fixed header, then the flow id and/or the tag.
_FLOW_HEADER = struct.Struct(">HBBQBBBBI")
_AUTH_HEADER = struct.Struct(f">HBBQBBBB{TAG_SIZE}s")
_AUTH_FLOW_HEADER = struct.Struct(f">HBBQBBBBI{TAG_SIZE}s")
#: Largest flow id the 4-byte extension can carry.
MAX_FLOW = 2**32 - 1

#: Magic for resilience control packets (0x5243, "RC").
CONTROL_MAGIC = 0x5243
_CONTROL_MAGIC_BYTES = CONTROL_MAGIC.to_bytes(2, "big")
#: Control message types.
CTRL_PROBE = 1
CTRL_PROBE_ACK = 2
CTRL_NACK = 3
_CTRL_PROBE_STRUCT = struct.Struct(">HBBBQ")
_CTRL_NACK_STRUCT = struct.Struct(">HBBQBBB")
#: Version 2 NACK: the flow id sits between the type and the sequence
#: number so flow-aware repair never answers one tenant's NACK with
#: another tenant's shares.  Flow-0 NACKs stay version 1 (byte-identical
#: to pre-flow senders).
_CTRL_NACK_V2_STRUCT = struct.Struct(">HBBIQBBB")

#: Scheme ids carried on the wire.  Ramp schemes occupy ids 16 + L so the
#: receiver can recover the block parameter from the id alone.
SCHEME_IDS = {"shamir-gf256": 1, "xor-perfect": 2, "blakley-gfp": 3}
SCHEME_IDS.update({f"ramp-gf256-L{L}": 16 + L for L in range(2, 17)})
SCHEME_NAMES = {v: k for k, v in SCHEME_IDS.items()}


#: Builds a record from a tuple of already-checked fields, skipping the
#: record's own constructor.
_new_record = tuple.__new__


class WireFormatError(Exception):
    """Raised when an incoming packet cannot be parsed as a share."""


class ShareHeader(NamedTuple):
    """Decoded header of a share packet (an immutable record)."""

    scheme_id: int
    seq: int
    index: int
    k: int
    m: int
    #: Flow id the share belongs to (0 = the default single-flow stream).
    flow: int = 0
    #: Keyed MAC carried by a version 3 authenticated frame; ``None`` for
    #: unauthenticated frames.  The tag is public wire material (it is
    #: *verified* against the share, never used to derive anything).
    tag: Optional[bytes] = None

    @property
    def scheme_name(self) -> str:
        return SCHEME_NAMES.get(self.scheme_id, f"unknown({self.scheme_id})")


def share_packet_size(payload_size: int, flow: int = 0) -> int:
    """Total wire size of an untagged share packet for a ``payload_size``-byte share."""
    return payload_size + (HEADER_SIZE if flow == 0 else FLOW_HEADER_SIZE)


def share_layout(version: int, flags: int) -> Tuple[Optional[int], Optional[int], int]:
    """Offsets of the flow id, the tag and the share body in a share frame.

    ``version`` and ``flags`` are the frame's bytes 2 and 15.  After the
    fixed header come the flow id (``FLAG_FLOW``, version 2 and up) and
    then the tag (``FLAG_AUTH``, version 3 and up); an absent extension's
    offset is ``None``.
    """
    flow_at = tag_at = None
    offset = HEADER_SIZE
    if version >= _VERSION_FLOW and flags & FLAG_FLOW:
        flow_at, offset = offset, FLOW_HEADER_SIZE
    if version >= _VERSION_AUTH and flags & FLAG_AUTH:
        tag_at, offset = offset, offset + TAG_SIZE
    return flow_at, tag_at, offset


def encode_share(
    seq: int, share: Share, scheme_name: str, flow: int = 0,
    tag: Optional[bytes] = None,
) -> bytes:
    """Serialise a share of symbol ``seq`` into a wire packet.

    ``flow`` 0 (the default) emits a version 1 packet, byte-identical to
    pre-flow encodings; a nonzero flow emits a version 2 packet with the
    flow extension.  A ``tag`` (a :data:`TAG_SIZE`-byte keyed MAC, see
    :mod:`repro.protocol.auth`) bumps the frame to version 3 with
    ``FLAG_AUTH`` set; untagged frames are byte-identical to pre-auth
    encodings.

    Raises:
        ValueError: for out-of-range fields or unknown scheme names.
    """
    scheme_id = SCHEME_IDS.get(scheme_name)
    if scheme_id is None:
        raise ValueError(f"unknown scheme {scheme_name!r}")
    if not 0 <= seq < 2**64:
        raise ValueError(f"sequence number out of range: {seq}")
    if not 0 <= flow <= MAX_FLOW:
        raise ValueError(f"flow id out of range: {flow}")
    index, data, k, m = share
    if not 1 <= index <= 255 or not 1 <= k <= 255 or not 1 <= m <= 255:
        raise ValueError(
            f"header fields out of range: index={index}, k={k}, m={m}"
        )
    if tag is not None:
        if len(tag) != TAG_SIZE:
            raise ValueError(f"tag must be {TAG_SIZE} bytes, got {len(tag)}")
        if flow == 0:
            return _AUTH_HEADER.pack(
                _MAGIC, _VERSION_AUTH, scheme_id, seq, index, k, m, FLAG_AUTH, tag
            ) + data
        return _AUTH_FLOW_HEADER.pack(
            _MAGIC, _VERSION_AUTH, scheme_id, seq, index, k, m,
            FLAG_AUTH | FLAG_FLOW, flow, tag,
        ) + data
    if flow == 0:
        return _STRUCT.pack(_MAGIC, _VERSION, scheme_id, seq, index, k, m, 0) + data
    return _FLOW_HEADER.pack(
        _MAGIC, _VERSION_FLOW, scheme_id, seq, index, k, m, FLAG_FLOW, flow
    ) + data


def decode_share(packet: bytes) -> Tuple[ShareHeader, Share]:
    """Parse a wire packet back into its header and share.

    Version 1 packets decode as flow 0; version 2 packets carry the flow
    in the ``FLAG_FLOW`` extension (absent extension means flow 0, and
    unknown flag bits are ignored).  Version 3 packets may additionally
    carry a :data:`TAG_SIZE`-byte MAC in the ``FLAG_AUTH`` extension
    (flow first, tag second); ``FLAG_AUTH`` without enough bytes for the
    tag is a truncation error.

    Raises:
        WireFormatError: for truncated packets, bad magic, unsupported
            versions, or a share index outside 1..m.
    """
    size = len(packet)
    if size < HEADER_SIZE:
        raise WireFormatError(f"packet of {size} bytes is shorter than the header")
    try:
        magic, version, scheme_id, seq, index, k, m, flags = _STRUCT.unpack_from(packet)
    except struct.error as exc:  # belt and braces: adversarial bytes never
        raise WireFormatError(str(exc)) from exc  # escape as struct.error
    if magic != _MAGIC:
        raise WireFormatError(f"bad magic 0x{magic:04x}")
    # The extensions, as share_layout reads them: the flow id, then the tag.
    if version == _VERSION:
        flow, tag, offset = 0, None, HEADER_SIZE
    elif version == _VERSION_FLOW or version == _VERSION_AUTH:
        has_flow = flags & FLAG_FLOW
        tag_at = FLOW_HEADER_SIZE if has_flow else HEADER_SIZE
        has_tag = version == _VERSION_AUTH and flags & FLAG_AUTH
        offset = tag_at + TAG_SIZE if has_tag else tag_at
        if size < offset:
            raise WireFormatError(
                f"packet of {size} bytes is shorter than its {offset}-byte header"
            )
        flow = _FLOW_STRUCT.unpack_from(packet, HEADER_SIZE)[0] if has_flow else 0
        tag = packet[tag_at:offset] if has_tag else None
    else:
        raise WireFormatError(f"unsupported version {version}")
    # Share's own checks, run once here so both records are built as is.
    if not 1 <= k <= m:
        raise WireFormatError(f"invalid threshold parameters k={k}, m={m}")
    if not 1 <= index <= m:
        raise WireFormatError(f"share index {index} outside 1..{m}")
    return (
        _new_record(ShareHeader, (scheme_id, seq, index, k, m, flow, tag)),
        _new_record(Share, (index, packet[offset:], k, m)),
    )


# -- resilience control messages ---------------------------------------------------


@dataclass(frozen=True)
class ControlMessage:
    """A decoded resilience control packet.

    Attributes:
        kind: one of :data:`CTRL_PROBE`, :data:`CTRL_PROBE_ACK`,
            :data:`CTRL_NACK`.
        channel: probed channel index (probe kinds; 0 for NACK).
        nonce: probe sequence number, echoed by the ack (probe kinds).
        seq: symbol sequence number (NACK only).
        k: symbol threshold (NACK only).
        m: symbol multiplicity (NACK only).
        have: share indices the receiver already holds (NACK only).
        flow: flow the NACKed symbol belongs to (NACK only; 0 = default).
    """

    kind: int
    channel: int = 0
    nonce: int = 0
    seq: int = 0
    k: int = 0
    m: int = 0
    have: Tuple[int, ...] = ()
    flow: int = 0


def encode_probe(channel: int, nonce: int) -> bytes:
    """Serialise a liveness probe for ``channel``."""
    return _encode_probe_kind(CTRL_PROBE, channel, nonce)


def encode_probe_ack(channel: int, nonce: int) -> bytes:
    """Serialise the acknowledgement echoing probe ``nonce``."""
    return _encode_probe_kind(CTRL_PROBE_ACK, channel, nonce)


def _encode_probe_kind(kind: int, channel: int, nonce: int) -> bytes:
    if not 0 <= channel <= 255:
        raise ValueError(f"channel out of range: {channel}")
    if not 0 <= nonce < 2**64:
        raise ValueError(f"nonce out of range: {nonce}")
    return _CTRL_PROBE_STRUCT.pack(CONTROL_MAGIC, _VERSION, kind, channel, nonce)


def encode_nack(seq: int, k: int, m: int, have: Iterable[int], flow: int = 0) -> bytes:
    """Serialise a repair NACK for symbol ``seq`` of ``flow``.

    ``have`` lists the share indices the receiver already holds; the
    sender retransmits from the complement.  Indices only -- a NACK never
    carries share material.  Flow 0 emits the version 1 encoding
    (byte-identical to pre-flow NACKs); nonzero flows use version 2.
    """
    if not 0 <= seq < 2**64:
        raise ValueError(f"sequence number out of range: {seq}")
    if not 0 <= flow <= MAX_FLOW:
        raise ValueError(f"flow id out of range: {flow}")
    if not 1 <= k <= 255 or not 1 <= m <= 255:
        raise ValueError(f"header fields out of range: k={k}, m={m}")
    indices = sorted(set(have))
    if any(not 1 <= index <= m for index in indices):
        raise ValueError(f"share indices out of range 1..{m}: {indices}")
    if not 1 <= len(indices) < k:
        raise ValueError(
            f"a NACK needs 1 <= held shares < k, got {len(indices)} with k={k}"
        )
    if flow == 0:
        header = _CTRL_NACK_STRUCT.pack(
            CONTROL_MAGIC, _VERSION, CTRL_NACK, seq, k, m, len(indices)
        )
    else:
        header = _CTRL_NACK_V2_STRUCT.pack(
            CONTROL_MAGIC, _VERSION_FLOW, CTRL_NACK, flow, seq, k, m, len(indices)
        )
    return header + bytes(indices)


def is_control(packet: bytes) -> bool:
    """Whether ``packet`` starts with the control magic."""
    return packet[:2] == _CONTROL_MAGIC_BYTES


def decode_control(packet: bytes) -> ControlMessage:
    """Parse a control packet.

    Raises:
        WireFormatError: for truncated packets, bad magic, unsupported
            versions, unknown control types, or inconsistent NACK fields.
    """
    if len(packet) < 4:
        raise WireFormatError(f"control packet of {len(packet)} bytes is too short")
    try:
        magic, version, kind = struct.unpack_from(">HBB", packet)
    except struct.error as exc:
        raise WireFormatError(str(exc)) from exc
    if magic != CONTROL_MAGIC:
        raise WireFormatError(f"bad control magic 0x{magic:04x}")
    if version not in (_VERSION, _VERSION_FLOW):
        raise WireFormatError(f"unsupported version {version}")
    if kind in (CTRL_PROBE, CTRL_PROBE_ACK):
        # Probes are flow-agnostic (they test a channel, not a stream), so
        # both versions share the version 1 layout.
        if len(packet) < _CTRL_PROBE_STRUCT.size:
            raise WireFormatError(f"truncated probe packet of {len(packet)} bytes")
        try:
            _, _, _, channel, nonce = _CTRL_PROBE_STRUCT.unpack_from(packet)
        except struct.error as exc:
            raise WireFormatError(str(exc)) from exc
        return ControlMessage(kind=kind, channel=channel, nonce=nonce)
    if kind == CTRL_NACK:
        flow = 0
        try:
            if version == _VERSION:
                layout = _CTRL_NACK_STRUCT
                if len(packet) < layout.size:
                    raise WireFormatError(f"truncated NACK packet of {len(packet)} bytes")
                _, _, _, seq, k, m, count = layout.unpack_from(packet)
            else:
                layout = _CTRL_NACK_V2_STRUCT
                if len(packet) < layout.size:
                    raise WireFormatError(f"truncated NACK packet of {len(packet)} bytes")
                _, _, _, flow, seq, k, m, count = layout.unpack_from(packet)
        except struct.error as exc:
            raise WireFormatError(str(exc)) from exc
        body = packet[layout.size:]
        if len(body) < count:
            raise WireFormatError(f"NACK lists {count} indices but carries {len(body)}")
        have = tuple(body[:count])
        if any(not 1 <= index <= m for index in have):
            raise WireFormatError(f"NACK share indices out of range 1..{m}: {have}")
        return ControlMessage(kind=kind, seq=seq, k=k, m=m, have=have, flow=flow)
    raise WireFormatError(f"unknown control type {kind}")
