"""Share-frame decoder oracle: the tests' reference for ``decode_share``.

The decoder as it read frames before it was folded into one pass: the
fixed header unpacked, the extensions located by
:func:`repro.protocol.wire.share_layout`, and both records built through
their validating constructors (``Share`` raises the index and threshold
errors).  ``tests/test_wire_oracle.py`` requires the production decoder
to return equal records, or raise :class:`WireFormatError` with the same
message, on every input.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.protocol.wire import (
    HEADER_SIZE,
    ShareHeader,
    WireFormatError,
    share_layout,
)
from repro.sharing.base import Share

_STRUCT = struct.Struct(">HBBQBBBB")
_FLOW_STRUCT = struct.Struct(">I")
_MAGIC = 0x5253
_VERSIONS = (1, 2, 3)


def decode_share(packet: bytes) -> Tuple[ShareHeader, Share]:
    """Parse a share frame the slow, obvious way."""
    if len(packet) < HEADER_SIZE:
        raise WireFormatError(f"packet of {len(packet)} bytes is shorter than the header")
    try:
        magic, version, scheme_id, seq, index, k, m, flags = _STRUCT.unpack_from(packet)
    except struct.error as exc:
        raise WireFormatError(str(exc)) from exc
    if magic != _MAGIC:
        raise WireFormatError(f"bad magic 0x{magic:04x}")
    if version not in _VERSIONS:
        raise WireFormatError(f"unsupported version {version}")
    flow_at, tag_at, offset = share_layout(version, flags)
    if len(packet) < offset:
        raise WireFormatError(
            f"packet of {len(packet)} bytes is shorter than its {offset}-byte header"
        )
    flow = 0 if flow_at is None else _FLOW_STRUCT.unpack_from(packet, flow_at)[0]
    tag = None if tag_at is None else packet[tag_at:offset]
    try:
        share = Share(index, packet[offset:], k, m)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc
    return ShareHeader(scheme_id, seq, index, k, m, flow, tag), share
