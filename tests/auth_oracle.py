"""One-shot keyed-MAC oracle: the tests' reference for share tags.

The tag construction of docs/AUTH.md written as one keyed BLAKE2b call
over the whole bound message, with the key passed in.  The production
authenticator (:class:`repro.protocol.auth.ShareAuthenticator`) tags a
copy of a per-flow keyed state instead, fed the bound header fields and
the body in two updates; ``tests/test_auth_oracle.py`` requires the two
to agree byte for byte.
"""

from __future__ import annotations

import hashlib
import struct

from repro.protocol.wire import TAG_SIZE

#: scheme_id (1) || seq (8) || index (1) || k (1) || m (1) || flow (4),
#: big-endian, as docs/AUTH.md lays the bound fields out.
_BIND = struct.Struct(">BQBBBI")


def compute_tag(
    mac_key: bytes, scheme_id: int, seq: int, index: int, k: int, m: int,
    flow: int, data: bytes,
) -> bytes:
    """The truncated keyed-BLAKE2b tag for one share in its slot."""
    bound = _BIND.pack(scheme_id, seq, index, k, m, flow) + data
    return hashlib.blake2b(bound, key=mac_key, digest_size=TAG_SIZE).digest()
