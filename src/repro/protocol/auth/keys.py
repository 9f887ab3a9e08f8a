"""Key material for authenticated shares: derivation and config.

The key model is deliberately small (docs/AUTH.md):

* one **root key** per protected deployment (a fleet cell, an attack
  harness run, a point-to-point pair) -- 16..64 bytes of shared secret;
* one **flow key** per flow id, derived from the root key with the same
  SHA-256-over-canonical-JSON identity derivation the sweep layer uses
  for seeds (:func:`repro.sweep.spec.derive_seed`).  Derivation depends
  only on the (root key, flow id) identity, never on worker order or
  wall clock, so fleet shards derive byte-identical keys and per-tenant
  flows are cryptographically isolated from each other: tenant A's key
  authenticates nothing for tenant B.

The flow key itself is never stored: :class:`AuthConfig` keeps one keyed
BLAKE2b state per flow, built on first use, and every tag is a copy of
it.  Both ends of a pair share one config, so each flow key is derived
once per pair.

Key material is *secret*: the taint policy registers ``root_key`` /
``mac_key`` / ``auth_key`` parameters as sources (docs/TAINT.md), and
every ``__repr__`` here redacts.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from repro.protocol.wire import TAG_SIZE
from repro.sweep.spec import canonical_json

#: Accepted root/flow key lengths in bytes (inclusive).  BLAKE2b keyed
#: mode accepts up to 64; below 16 the MAC assumption is not credible.
MIN_KEY_SIZE = 16
MAX_KEY_SIZE = 64

#: Domain-separation label baked into every flow-key derivation.
_PURPOSE = "share-mac"


def _check_key(key: bytes, what: str) -> bytes:
    if not isinstance(key, (bytes, bytearray)):
        raise TypeError(f"{what} must be bytes, got {type(key).__name__}")
    key = bytes(key)
    if not MIN_KEY_SIZE <= len(key) <= MAX_KEY_SIZE:
        raise ValueError(
            f"{what} must be {MIN_KEY_SIZE}..{MAX_KEY_SIZE} bytes, got {len(key)}"
        )
    return key


def derive_root_key(seed: int) -> bytes:
    """A deterministic 32-byte root key for simulation identity ``seed``.

    Simulations have no key-distribution problem -- both endpoints are
    this process -- so the root key is derived from the run's seed the
    same way every other per-run identity is.  Real deployments would
    provision the root key out of band instead.
    """
    digest = hashlib.sha256(
        canonical_json({"purpose": _PURPOSE, "root_seed": int(seed)}).encode()
    ).digest()
    return digest


def derive_flow_key(root_key: bytes, flow: int) -> bytes:
    """The per-flow MAC key: SHA-256 over the (root, flow) identity.

    Mirrors :func:`repro.sweep.spec.derive_seed`: canonical JSON of the
    identity, hashed -- so the derivation is order-free and shard-safe.
    """
    root_key = _check_key(root_key, "root_key")
    if flow < 0:
        raise ValueError(f"flow id out of range: {flow}")
    digest = hashlib.sha256(
        canonical_json(
            {"flow": int(flow), "purpose": _PURPOSE, "root": root_key.hex()}
        ).encode()
    ).digest()
    return digest


class AuthConfig:
    """Configuration for the authenticated-share layer.

    Tags are :data:`repro.protocol.wire.TAG_SIZE` bytes of truncated
    BLAKE2b, fixed by wire version 3.

    Attributes:
        root_key: the shared root secret (16..64 bytes).
    """

    def __init__(self, root_key: bytes) -> None:
        self.root_key = _check_key(root_key, "root_key")
        #: flow id -> the keyed BLAKE2b state of that flow's tags, built
        #: on first lookup: one entry per flow this config tags.  Every
        #: :class:`~repro.protocol.auth.ShareAuthenticator` on this config
        #: shares it, and tags a copy; nothing updates a stored state.
        self.flow_states: _FlowStates = _FlowStates(self.root_key)

    def __getstate__(self) -> Dict[str, Any]:
        # Hash states neither pickle nor belong in a copy: the copy
        # rebuilds its own from the root key.
        return {"root_key": self.root_key}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["root_key"])

    def __repr__(self) -> str:
        # Redacted: the root key is the deployment's whole secret.
        return f"AuthConfig(root_key=<{len(self.root_key)} bytes>)"


class _FlowStates(dict):
    """flow id -> keyed BLAKE2b state over that flow's key.

    A lookup of a new flow derives its key and builds the state; the key
    lives only inside the state.
    """

    __slots__ = ("_root_key",)

    def __init__(self, root_key: bytes) -> None:
        super().__init__()
        self._root_key = root_key

    def __missing__(self, flow: int) -> Any:
        state = hashlib.blake2b(
            key=derive_flow_key(self._root_key, flow), digest_size=TAG_SIZE
        )
        self[flow] = state
        return state

    def __repr__(self) -> str:
        # Name the flows, never the states (docs/TAINT.md).
        return f"FlowStates(flows={sorted(self)})"
