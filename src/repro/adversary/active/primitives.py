"""Byte-level attack primitives on wire packets.

Pure functions: each takes packet bytes plus an rng stream and returns new
packet bytes (or ``None`` when the packet cannot be attacked in the
requested way).  All randomness flows through the caller's named stream,
so the same seed replays the same attack byte-for-byte.

The share primitives deliberately preserve the 16/20-byte wire framing --
a corrupted share still *decodes* (valid magic, version, header fields),
it just carries wrong share material.  That is the point: framing-level
garbage is caught for free by :func:`~repro.protocol.wire.decode_share`
(``decode_errors``), whereas a well-framed wrong share survives all the
way to reconstruction and only the Reed-Solomon redundancy exploited by
:func:`~repro.sharing.robust.robust_reconstruct` can expose it.
"""

from __future__ import annotations

from typing import Optional

from repro.protocol.wire import (
    HEADER_SIZE,
    SCHEME_IDS,
    SHARE_MAGIC,
    WireFormatError,
    decode_share,
    encode_share,
    is_control,
    share_layout,
)
from repro.sharing.base import Share


_SHARE_MAGIC_BYTES = SHARE_MAGIC.to_bytes(2, "big")


def is_share(packet: bytes) -> bool:
    """Whether ``packet`` starts with the share magic."""
    return packet[:2] == _SHARE_MAGIC_BYTES


def share_body_offset(packet: bytes) -> Optional[int]:
    """Offset of the share payload inside a share packet.

    Returns ``None`` when the packet is not a well-formed share carrying
    at least one payload byte (nothing to corrupt).  The offset skips an
    authenticated frame's MAC, so corruption hits the true share body --
    flipping tag bytes would be a strictly weaker attack (the share itself
    stays consistent; only verification fails).
    """
    if not is_share(packet) or len(packet) < HEADER_SIZE:
        return None
    _, _, offset = share_layout(packet[2], packet[15])
    if len(packet) <= offset:
        return None
    return offset


def corrupt_share_packet(packet: bytes, rng, mode: str = "flip") -> Optional[bytes]:
    """Corrupt the share *body* of a share packet, preserving the framing.

    Modes:
        ``flip``    XOR one body byte with a nonzero mask (minimal damage,
                    still enough to make the share inconsistent).
        ``rewrite`` Replace the whole body with attacker randomness.
        ``zero``    Zero the whole body (a structured, low-entropy lie).

    Returns the corrupted packet, or ``None`` for non-share packets.
    """
    offset = share_body_offset(packet)
    if offset is None:
        return None
    body = bytearray(packet[offset:])
    if mode == "flip":
        position = int(rng.integers(0, len(body)))
        mask = int(rng.integers(1, 256))
        body[position] ^= mask
    elif mode == "rewrite":
        body[:] = rng.bytes(len(body))
    elif mode == "zero":
        body[:] = bytes(len(body))
    else:
        raise ValueError(f"unknown corrupt mode {mode!r}")
    return packet[:offset] + bytes(body)


def corrupt_any_packet(packet: bytes, rng) -> Optional[bytes]:
    """Flip one byte anywhere in the packet (framing included).

    Used against control traffic, where breaking the framing *is* the
    attack (a mangled NACK or probe must be rejected, never half-acted
    on).  Returns ``None`` for empty packets.
    """
    if not packet:
        return None
    mutated = bytearray(packet)
    position = int(rng.integers(0, len(mutated)))
    mask = int(rng.integers(1, 256))
    mutated[position] ^= mask
    return bytes(mutated)


def forge_share_packet(
    template: bytes,
    rng,
    seq: Optional[int] = None,
    index: Optional[int] = None,
) -> Optional[bytes]:
    """Build a well-framed forged share modelled on an observed packet.

    The forgery copies the template's geometry (scheme, k, m, flow, body
    length) but carries an attacker-chosen sequence number and share
    index with a random body -- valid framing end to end, so it passes
    :func:`decode_share` and lands in the receiver's reassembly table.
    An authenticated template's tag is copied verbatim onto the forgery
    (the strongest move available without the key: the frame is fully
    well-formed, and only MAC verification can reject it -- the tag binds
    the original slot and body, so it cannot verify for the forged ones).

    Returns ``None`` when the template is not a decodable share of a
    known scheme (the attacker cannot imitate what it cannot parse).
    """
    if is_control(template):
        return None
    try:
        header, share = decode_share(template)
    except WireFormatError:
        return None
    if header.scheme_name not in SCHEME_IDS:
        return None
    if seq is None:
        seq = header.seq
    if index is None:
        index = int(rng.integers(1, header.m + 1))
    forged = Share(index=index, data=rng.bytes(len(share.data)), k=header.k, m=header.m)
    try:
        return encode_share(
            seq, forged, header.scheme_name, flow=header.flow, tag=header.tag
        )
    except ValueError:
        return None
