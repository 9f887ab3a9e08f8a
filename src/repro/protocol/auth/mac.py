"""Per-share keyed MACs: tag construction and constant-time verification.

The tag is BLAKE2b in keyed mode (:func:`hashlib.blake2b` with ``key=``),
truncated to :data:`repro.protocol.wire.TAG_SIZE` bytes, over the share
*body* prefixed with the header fields that bind it to its slot::

    tag = BLAKE2b(key=flow_key, digest_size=TAG_SIZE)(
        scheme_id || seq || index || k || m || flow || data)

Each tag is computed on a copy of the flow's keyed state
(:attr:`AuthConfig.flow_states`), fed the bound fields and then the body:
an incremental update gives the same digest as the one-shot keyed hash,
so the key is set up once per flow instead of once per tag.

Binding the header fields means an adversary cannot cut a validly-tagged
share loose and replant it under another sequence number, index, flow or
scheme -- the replay/forge primitives in :mod:`repro.adversary.active`
exercise exactly those moves.  Verification recomputes the tag and
compares with :func:`hmac.compare_digest`, so the comparison itself
leaks nothing through timing.

A verified tag converts a corrupted channel from an *error* (cost: two
units of redundancy in unique decoding) into an *erasure* (cost: one) --
see :func:`repro.sharing.robust.reconstruct_with_erasures`.
"""

from __future__ import annotations

import hmac
import struct

from repro.protocol.auth.keys import AuthConfig
from repro.protocol.wire import TAG_SIZE
from repro.sharing.base import Share

#: Header fields bound into the tag, packed big-endian:
#: scheme_id (1) || seq (8) || index (1) || k (1) || m (1) || flow (4).
_BIND = struct.Struct(">BQBBBI")


class ShareAuthenticator:
    """Tags and verifies shares with per-flow keys from one root key."""

    def __init__(self, config: AuthConfig) -> None:
        self.config = config
        self._states = config.flow_states

    def tag(
        self, flow: int, seq: int, share: Share, scheme_id: int
    ) -> bytes:
        """The wire tag for ``share`` carried as (flow, seq, index)."""
        index, data, k, m = share
        mac = self._states[flow].copy()
        mac.update(_BIND.pack(scheme_id, seq, index, k, m, flow))
        mac.update(data)
        return mac.digest()

    def verify(
        self, flow: int, seq: int, share: Share, scheme_id: int, tag: bytes
    ) -> bool:
        """Whether ``tag`` authenticates ``share`` in its claimed slot.

        Constant-time comparison; any mismatch -- wrong key (cross-tenant
        forgery), wrong slot (replanted share), wrong body (corruption)
        -- fails identically.
        """
        if tag is None or len(tag) != TAG_SIZE:
            return False
        expected = self.tag(flow, seq, share, scheme_id)
        return hmac.compare_digest(expected, tag)

    def __repr__(self) -> str:
        # Never show key material (docs/TAINT.md).
        return f"ShareAuthenticator(config={self.config!r})"
