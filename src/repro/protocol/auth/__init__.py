"""Authenticated shares: keyed MACs over share material (docs/AUTH.md).

The robustness machinery below this layer detects corruption only through
Reed-Solomon *consistency* -- which is silent at the ``k = m`` boundary
and bounded by the unique-decoding radius ``floor((m - k) / 2)``
elsewhere.  This package closes the gap the ADVERSARY.md residual-threat
section states: every share carries a truncated keyed-BLAKE2b tag bound
to its (flow, seq, index, scheme, k, m) slot, the receiver verifies
before reassembly, and verified-bad shares become *erasures* for
:func:`repro.sharing.robust.reconstruct_with_erasures` -- recovery holds
with up to ``m - k`` corrupted channels, and forgery is detected
unconditionally under the keyed-MAC assumption.

Key model: one root key per deployment, per-flow keys derived via the
SHA-256 identity pattern (:mod:`repro.protocol.auth.keys`), so fleet
tenants are cryptographically isolated and shards stay byte-identical.
Each flow key lives only inside the keyed state its config keeps for
the flow.
"""

from repro.protocol.auth.keys import AuthConfig, derive_flow_key, derive_root_key
from repro.protocol.auth.mac import ShareAuthenticator

__all__ = [
    "AuthConfig",
    "ShareAuthenticator",
    "derive_flow_key",
    "derive_root_key",
]
