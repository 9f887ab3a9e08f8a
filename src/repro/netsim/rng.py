"""Named, reproducible random streams.

Every stochastic component of the simulator (per-link loss draws, the
sharing scheme's pad material, schedule sampling, workload jitter) pulls
from its own named stream derived from a single experiment seed.  Streams
are independent of each other and of the order in which other components
consume randomness, so adding instrumentation never perturbs results.

A stream is seeded on first use.  :meth:`RngRegistry.stream` returns an
:class:`RngStream` handle at once; the first draw from it (any public
attribute read) seeds its generator exactly as an eager registry would,
so a run draws the same numbers whichever streams it touches and in
whatever order.  Most streams a run names are never drawn: a loss-free
link's loss stream, a single-atom (κ, µ) sampler's schedule stream, the
pad of a synthetic sender or of a node that only receives, the
resilience and attack streams of a run that arms neither.  A consumer
that will certainly draw seeds its stream when it is built, so that the
seeding counts as set-up rather than run: a
:class:`~repro.protocol.scheduler.DynamicParameterSampler` whose mixture
has more than one atom, and every :class:`RandomBytes`.  Seeding every
stream at its first draw instead moved that cost into the timed run: on
the ledger's ``fleet_synth`` workload (2-core VM) it cut ``setup_s`` by
81% but lost 4.4% of ``flows_per_s``.  A link whose loss, jitter or
corruption a fault or an attack sets later seeds at its first draw, and
so does a sender's pad, which the sender wraps at its first split.

A stream that only ever serves uniform bytes and has one owner (the
sender's share pad, a workload's payloads, a fleet flow's payloads) can
be wrapped in :class:`RandomBytes`, which draws the bit generator's raw
64-bit words in blocks and serves every request byte for byte as a
direct draw would: the raw words are the 32-bit word stream numpy's
byte draws read, low half first.  A refill is sized from the request
that needs it: eight requests' worth at first, then twice the buffer it
replaces, up to a 1024-word block.  A fleet flow's eight 64-byte
payloads so cost one 512-byte draw, and a long-lived stream reaches
whole blocks after a few refills.  Streams that mix draw kinds stay on
the generator's own methods (see :class:`RandomBytes`).
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Optional

import numpy as np


def _stable_hash(name: str) -> int:
    """A platform-stable 32-bit hash of a stream name (crc32, not hash())."""
    return zlib.crc32(name.encode("utf-8"))


class RngStream:
    """A registry's named ``numpy.random.Generator``, seeded on first use.

    Stands in for the generator everywhere: the first read of a public
    attribute (``random``, ``integers``, ``bytes``, ``uniform``,
    ``bit_generator``, ...) seeds it with
    ``default_rng(SeedSequence(entropy=root_seed, spawn_key=(key,)))`` and
    caches the attribute on the handle.  Later reads find the generator's
    bound method in the handle's own ``__dict__``, so a draw costs what a
    draw on the generator costs.  The repr names the stream and shows no
    state.
    """

    _generator: Optional[np.random.Generator] = None

    def __init__(self, name: str, root_seed: int, key: int):
        self._name = name
        self._root_seed = root_seed
        self._key = key

    def __getattr__(self, attr: str) -> Any:
        # Reached only for attributes not yet cached on the handle.
        if attr.startswith("_"):
            raise AttributeError(attr)
        if self._generator is None:
            self._generator = np.random.default_rng(
                np.random.SeedSequence(entropy=self._root_seed, spawn_key=(self._key,))
            )
        value = getattr(self._generator, attr)
        setattr(self, attr, value)
        return value

    def __repr__(self) -> str:
        return f"RngStream({self._name!r})"


class RngRegistry:
    """A factory of independent named random streams.

    Streams are memoised: asking for the same name twice returns the same
    :class:`RngStream` (so its state advances coherently).
    """

    def __init__(self, root_seed: int):
        if isinstance(root_seed, bool) or not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root seed must be a nonnegative integer, got {root_seed!r}")
        if root_seed < 0:
            raise ValueError(f"root seed must be nonnegative, got {root_seed!r}")
        self.root_seed = root_seed
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the stream for ``name``, creating its handle on first use."""
        stream = self._streams.get(name)
        if stream is None:
            if not isinstance(name, str):
                raise TypeError(f"stream name must be a str, got {name!r}")
            stream = self._streams[name] = RngStream(name, self.root_seed, _stable_hash(name))
        return stream


#: Most words one :class:`RandomBytes` refill draws (4 KiB), unless one
#: request needs more.
_BLOCK_WORDS = 1024

#: Requests' worth of words a stream's first refill draws.
_FIRST_REFILL_REQUESTS = 8

#: numpy's bit generators that serve a 32-bit word as one half of a 64-bit
#: output, low half first, so their raw outputs are their word stream.
_HALVED_WORD_GENERATORS = (
    np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
)


class RandomBytes:
    """Uniform random bytes from a generator, drawn in blocks of raw words.

    ``bytes(n)`` returns exactly what
    ``generator.integers(0, 256, size=n, dtype=np.uint8).tobytes()``
    would, and for ``n >= 1`` what ``generator.bytes(n)`` would.  numpy
    fills such a draw from 32-bit words, low byte first, starting on a
    fresh word and dropping the rest of the last one, so serving each
    request from the next ``ceil(n / 4)`` buffered words reproduces every
    call while paying numpy's per-call cost once per block.  ``bytes(0)``
    draws nothing, like ``integers`` (``generator.bytes(0)`` draws a word).

    A refill appends the bit generator's raw 64-bit outputs
    (``random_raw``) as little-endian bytes.  A 64-bit bit generator
    (``default_rng``'s PCG64) serves a 32-bit word as the low half of its
    next output and buffers the high half for the word after, so the raw
    outputs are that word stream, low half first, without numpy's
    bounded-integer path.  An odd refill keeps its trailing half-word at
    the end of the buffer, where the generator would have buffered it.
    Any other bit generator (MT19937's raw outputs are 32-bit words, so
    half their bytes would be zero) is refused.

    A refill draws :data:`_FIRST_REFILL_REQUESTS` times the request's
    words, or twice the words of the buffer it replaces if that is more,
    capped at :data:`_BLOCK_WORDS`; a request larger than the cap draws
    what it needs.  So a short stream buffers a few requests' worth and a
    long one reaches whole blocks after a few refills.  A request that
    drains the buffer drops it, so a finished stream holds no bytes.

    The wrapper must own its generator from the start: a direct draw would
    land after the buffered words and move every later byte.  For the same
    reason a stream that mixes scalar ``integers``, ``random`` and
    ``bytes`` draws (the link and attack streams) stays on the generator:
    those draws share its buffered half-word, so a raw draw there would
    shift every later value.  The wrapper binds ``random_raw`` when built,
    which seeds a registry stream then; the sender builds its pad at its
    first split, so a node that never sends never seeds one.  The buffered
    bytes are future coefficients or payloads, so the repr counts them and
    shows none (docs/TAINT.md).
    """

    __slots__ = ("_generator", "_random_raw", "_buffer", "_offset", "_grow")

    def __init__(self, generator: np.random.Generator):
        bit_generator = generator.bit_generator
        if not isinstance(bit_generator, _HALVED_WORD_GENERATORS):
            raise ValueError(
                "RandomBytes needs a bit generator whose 32-bit words halve its "
                f"64-bit outputs, got {type(bit_generator).__name__}"
            )
        self._generator = generator
        self._random_raw = bit_generator.random_raw
        self._buffer = b""
        #: Start of the unread bytes; always on a word boundary.
        self._offset = 0
        #: Twice the words of the last refill's buffer: the least the next
        #: refill draws (before the cap), kept after the buffer is dropped.
        self._grow = 0

    def bytes(self, n: int) -> bytes:
        """``n`` uniform random bytes."""
        if n < 1:
            if n:
                raise ValueError(f"cannot draw a negative number of bytes: {n}")
            return b""
        start = self._offset
        size = (n + 3) & ~3
        end = start + size
        buffer = self._buffer
        if end > len(buffer):
            self._refill((end - len(buffer)) >> 2, size >> 2)
            buffer = self._buffer
            start, end = 0, size
        if end == len(buffer):
            self._buffer = b""
            self._offset = 0
        else:
            self._offset = end
        return buffer[start : start + n]

    def _refill(self, missing: int, request: int) -> None:
        """Append at least ``missing`` fresh words to the unread bytes,
        sized from the ``request`` (in words) that needs them."""
        block = min(_BLOCK_WORDS, max(_FIRST_REFILL_REQUESTS * request, self._grow))
        raw = self._random_raw((max(block, missing) + 1) >> 1)
        self._buffer = self._buffer[self._offset :] + raw.astype("<u8", copy=False).tobytes()
        self._offset = 0
        self._grow = len(self._buffer) >> 1

    def __repr__(self) -> str:
        return f"RandomBytes({self._generator!r}, buffered={len(self._buffer) - self._offset})"
