"""The calibration kernel that turns CPU seconds into reference seconds.

On a shared host, neighbouring machines slow this process down through
the shared cache, memory bandwidth and the other hyperthread of its core,
and CPU time counts that slowdown as the program's own.  It drifts over
minutes, so runs of the same code minutes apart disagree by a quarter or
more.  The ledger therefore runs this fixed kernel before the first timed
repeat and after every one.  The kernel's CPU time divided by
:data:`REFERENCE_S` is how much slower the host is now than when the
kernel was calibrated, and each repeat's times are divided by the mean of
the two ratios around it.

The kernel mimics the simulator's mix of work: a heap of slotted event
objects with dict counters, dict and list building with shuffled lookups,
and small BLAKE2b digests.  It imports nothing from ``repro``, so no
change to the code under test can move it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random
import time

#: Median CPU seconds of :func:`kernel` on the otherwise idle two-core
#: x86 VM the ledger was built on.  Reference seconds are CPU seconds on
#: a host that runs the kernel this fast.
REFERENCE_S = 0.075

#: What :func:`kernel` returns; a different value means it did other work.
CHECKSUM = 0x547E2E9D


class _Event:
    __slots__ = ("key", "size", "payload")

    def __init__(self, key: int, size: int, payload: bytes) -> None:
        self.key = key
        self.size = size
        self.payload = payload

    def cost(self) -> int:
        return self.size + len(self.payload)


def _events(steps: int) -> int:
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    counts = {}
    total = seq = 0
    for i in range(2000):
        push(heap, (i * 0.37 % 11.0, seq, _Event(i % 97, i & 63, b"x" * (i & 31))))
        seq += 1
    while seq < steps:
        when, _, event = pop(heap)
        counts[event.key] = counts.get(event.key, 0) + 1
        total += event.cost()
        seq += 1
        successor = _Event((event.key * 31 + seq) % 97, seq & 63, event.payload[1:] + b"y")
        push(heap, (when + (seq % 13) * 0.01, seq, successor))
    return total + len(counts)


def _tables(entries: int) -> int:
    table = {}
    for j in range(entries):
        table[j] = [j, str(j), (j, j)]
    keys = list(table)
    random.Random(1).shuffle(keys)
    return sum(table[key][0] for key in keys)


def _digests(count: int) -> int:
    data = bytes(range(256)) * 4
    folded = 0
    for i in range(count):
        tag = hashlib.blake2b(data[i & 255 : (i & 255) + 600], digest_size=16).digest()
        folded ^= int.from_bytes(tag[:8], "little")
    return folded


def kernel() -> int:
    """The fixed work; returns a checksum of it."""
    return (_events(36000) + _tables(20000) + _digests(3000)) & 0xFFFFFFFF


def calibrate() -> float:
    """The host's current slowdown: kernel CPU seconds ÷ :data:`REFERENCE_S`."""
    gc.collect()
    started = time.process_time()
    checksum = kernel()
    elapsed = time.process_time() - started
    if checksum != CHECKSUM:
        raise RuntimeError(f"calibration kernel checksum {checksum:#x}, expected {CHECKSUM:#x}")
    return elapsed / REFERENCE_S
