"""Measurement utilities: rate meters and delay statistics.

The experiments report the same quantities iperf and the paper's echo tool
do: achieved bitrate over a measurement window, the percentage of datagrams
lost, and mean one-way delay.  These helpers accumulate them with Welford
running moments so no per-packet history needs to be retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


class RateMeter:
    """Counts delivered symbols over an explicit measurement window.

    Warm-up traffic before :meth:`start` is ignored, mirroring how the
    experiments let queues fill before measuring.
    """

    def __init__(self) -> None:
        self._started_at: Optional[float] = None
        self._ended_at: Optional[float] = None
        self.count = 0

    def start(self, now: float) -> None:
        """Open the measurement window at simulated time ``now``."""
        self._started_at = now
        self.count = 0

    def record(self, now: float) -> None:
        """Record one delivered symbol."""
        if self._started_at is None or now < self._started_at:
            return
        if self._ended_at is not None and now > self._ended_at:
            return
        self.count += 1

    def stop(self, now: float) -> None:
        """Close the measurement window."""
        self._ended_at = now

    @property
    def window(self) -> float:
        if self._started_at is None or self._ended_at is None:
            raise RuntimeError("rate meter window not started/stopped")
        return self._ended_at - self._started_at

    def rate(self) -> float:
        """Delivered symbols per unit time over the window.

        A zero-length window has no meaningful rate; 0.0 is returned
        instead of raising ``ZeroDivisionError`` (nothing was delivered
        in no time).  An unopened/unclosed window still raises
        ``RuntimeError`` via :attr:`window`.
        """
        window = self.window
        return self.count / window if window > 0 else 0.0


@dataclass
class DelayStats:
    """Streaming mean/variance/extremes of observed delays (Welford)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)
    minimum: float = math.inf
    maximum: float = -math.inf

    def record(self, value: float) -> None:
        """Add one delay observation."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def variance(self) -> float:
        """Sample variance (zero with fewer than two observations)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)
