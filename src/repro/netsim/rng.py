"""Named, reproducible random streams.

Every stochastic component of the simulator (per-link loss draws, the
sharing scheme's pad material, schedule sampling, workload jitter) pulls
from its own named stream derived from a single experiment seed.  Streams
are independent of each other and of the order in which other components
consume randomness, so adding instrumentation never perturbs results.

A stream that only ever serves uniform bytes and has one owner (the
sender's share pad, a workload's payloads, a fleet flow's payloads) can
be wrapped in :class:`RandomBytes`, which draws the generator's words in
blocks and serves every request byte for byte as a direct draw would.
A refill is sized from the request that needs it: eight requests' worth
at first, then twice the buffer it replaces, up to a 1024-word block.  A
fleet flow's eight 64-byte payloads so cost one 512-byte draw, and a
long-lived stream reaches whole blocks after a few refills.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


def _stable_hash(name: str) -> int:
    """A platform-stable 32-bit hash of a stream name (crc32, not hash())."""
    return zlib.crc32(name.encode("utf-8"))


class RngRegistry:
    """A factory of independent named ``numpy.random.Generator`` streams.

    Streams are memoised: asking for the same name twice returns the same
    generator object (so its state advances coherently).
    """

    def __init__(self, root_seed: int):
        if root_seed < 0:
            raise ValueError("root seed must be nonnegative")
        self.root_seed = root_seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            seed_seq = np.random.SeedSequence(
                entropy=self.root_seed, spawn_key=(_stable_hash(name),)
            )
            self._streams[name] = np.random.default_rng(seed_seq)
        return self._streams[name]

    def fork(self, suffix: str) -> "RngRegistry":
        """Derive a child registry (e.g. one per repetition of a sweep)."""
        return RngRegistry(
            int(
                np.random.SeedSequence(
                    entropy=self.root_seed, spawn_key=(_stable_hash(suffix),)
                ).generate_state(1)[0]
            )
        )


#: Most words one :class:`RandomBytes` refill draws (4 KiB), unless one
#: request needs more.
_BLOCK_WORDS = 1024

#: Requests' worth of words a stream's first refill draws.
_FIRST_REFILL_REQUESTS = 8


class RandomBytes:
    """Uniform random bytes from a generator, drawn in blocks of words.

    ``bytes(n)`` returns exactly what
    ``generator.integers(0, 256, size=n, dtype=np.uint8).tobytes()``
    would, and for ``n >= 1`` what ``generator.bytes(n)`` would.  numpy
    fills such a draw from 32-bit words, low byte first, starting on a
    fresh word and dropping the rest of the last one, so serving each
    request from the next ``ceil(n / 4)`` buffered words reproduces every
    call while paying numpy's per-call cost once per block.  ``bytes(0)``
    draws nothing, like ``integers`` (``generator.bytes(0)`` draws a word).

    A refill draws :data:`_FIRST_REFILL_REQUESTS` times the request's
    words, or twice the words of the buffer it replaces if that is more,
    capped at :data:`_BLOCK_WORDS`; a request larger than the cap draws
    what it needs.  So a short stream buffers a few requests' worth and a
    long one reaches whole blocks after a few refills.  The wrapper must
    own its generator: a direct draw would land after the buffered words
    and move every later byte.  The buffered bytes are future coefficients
    or payloads, so the repr counts them and shows none (docs/TAINT.md).
    """

    __slots__ = ("_generator", "_buffer", "_offset")

    def __init__(self, generator: np.random.Generator):
        self._generator = generator
        self._buffer = b""
        #: Start of the unread bytes; always on a word boundary.
        self._offset = 0

    def bytes(self, n: int) -> bytes:
        """``n`` uniform random bytes."""
        if n < 1:
            if n:
                raise ValueError(f"cannot draw a negative number of bytes: {n}")
            return b""
        start = self._offset
        size = (n + 3) & ~3
        end = start + size
        if end > len(self._buffer):
            self._refill((end - len(self._buffer)) >> 2, size >> 2)
            start, end = 0, size
        self._offset = end
        return self._buffer[start : start + n]

    def _refill(self, missing: int, request: int) -> None:
        """Append at least ``missing`` fresh words to the unread bytes,
        sized from the ``request`` (in words) that needs them."""
        block = min(_BLOCK_WORDS, max(_FIRST_REFILL_REQUESTS * request, len(self._buffer) >> 1))
        words = self._generator.integers(0, 2**32, size=max(block, missing), dtype=np.uint32)
        self._buffer = self._buffer[self._offset :] + words.astype("<u4", copy=False).tobytes()
        self._offset = 0

    def __repr__(self) -> str:
        return f"RandomBytes({self._generator!r}, buffered={len(self._buffer) - self._offset})"
