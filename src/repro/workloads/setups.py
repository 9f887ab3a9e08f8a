"""The paper's four experimental setups and the unit conventions (Sec. VI).

The model is unit-agnostic ("symbols per unit time"), so the simulator
picks units that keep event counts manageable while mapping exactly onto
the paper's axes:

* a **symbol** is a 1250-byte datagram payload = 10,000 bits;
* one **unit time** is 10 ms.

Hence a channel rated X Mbps carries X symbols per unit time
(X Mbps = 100·X symbols/s = X symbols / 10 ms), i.e. ``rate == mbps``
numerically, and a delay of Y ms is Y/10 unit times.  Reports convert back
to Mbps and ms so every figure's axes match the paper's.

The four setups (five channels each):

=========  =======================================  ==========================
setup      rates (Mbps)                             extras (per direction)
=========  =======================================  ==========================
Identical  (R, R, R, R, R) for a chosen R           negligible loss and delay
Diverse    (5, 20, 60, 65, 100)                     negligible loss and delay
Lossy      (5, 20, 60, 65, 100)                     loss (1, .5, 1, 2, 3) %
Delayed    (5, 20, 60, 65, 100)                     delay (2.5, .25, 12.5, 5, .5) ms
=========  =======================================  ==========================

The paper's rate/loss/delay experiments do not exercise privacy, so the
setups carry a default risk vector (0.1 per channel) used only by the
privacy validation tests and examples; pass ``risks=...`` to override.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from repro.core.channel import ChannelSet
from repro.netsim.engine import Engine
from repro.netsim.faults import CANONICAL_SCENARIOS, FaultPlan, canonical_plan

#: Symbol payload size in bytes (10,000 bits).
SYMBOL_SIZE = 1250

#: Milliseconds per simulator unit time.
MS_PER_UNIT = 10.0

#: Default per-channel risk for setups (the rate/loss/delay experiments
#: never consult it; privacy tests may override).
DEFAULT_RISK = 0.1

#: The Diverse rate profile in Mbps (Sec. VI).
DIVERSE_RATES_MBPS = (5.0, 20.0, 60.0, 65.0, 100.0)

#: The Lossy per-direction loss percentages (Sec. VI).
LOSSY_LOSS_PERCENT = (1.0, 0.5, 1.0, 2.0, 3.0)

#: The Delayed per-direction added delays in ms (Sec. VI).
DELAYED_DELAY_MS = (2.5, 0.25, 12.5, 5.0, 0.5)


def check_run_window(offered_rate: float, duration: float, warmup: float) -> None:
    """Reject a run no offer loop can finish: ``offered_rate`` and
    ``duration`` must be finite and positive, ``warmup`` finite and
    nonnegative (an infinite rate offers every symbol at t = 0)."""
    if not (math.isfinite(offered_rate) and offered_rate > 0):
        raise ValueError(f"offered_rate must be finite and positive, got {offered_rate}")
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and positive, got {duration}")
    if not (math.isfinite(warmup) and warmup >= 0):
        raise ValueError(f"warmup must be finite and nonnegative, got {warmup}")


def schedule_offers(
    engine: Engine,
    offer: Callable,
    offered_rate: float,
    warmup: float,
    duration: float,
    open_window: Optional[Callable] = None,
) -> float:
    """Call ``offer()`` at 0, 1/rate, 2/rate, ... before the window closes
    at ``warmup + duration`` (returned), and ``open_window()`` at ``warmup``.

    Each offer schedules the next.  The loop's state rides in its events'
    arguments, so no closure refers to itself and keeps a run alive.
    """
    end_time = warmup + duration
    engine.schedule_at(0.0, _offer_tick, engine, offer, 1.0 / offered_rate, end_time)
    if open_window is not None:
        engine.schedule_at(warmup, open_window)
    return end_time


def _offer_tick(engine: Engine, offer: Callable, interval: float, end_time: float) -> None:
    offer()
    if engine.now + interval < end_time:
        engine.schedule(interval, _offer_tick, engine, offer, interval, end_time)


def mbps_to_rate(mbps: float) -> float:
    """Convert Mbps to symbols per unit time (numerically the identity)."""
    return mbps * 1e6 / (SYMBOL_SIZE * 8) * (MS_PER_UNIT / 1000.0)


def rate_to_mbps(rate: float) -> float:
    """Convert symbols per unit time back to Mbps."""
    return rate * (SYMBOL_SIZE * 8) / 1e6 / (MS_PER_UNIT / 1000.0)


def ms_to_delay(ms: float) -> float:
    """Convert milliseconds to simulator unit times."""
    return ms / MS_PER_UNIT


def delay_to_ms(delay: float) -> float:
    """Convert simulator unit times to milliseconds."""
    return delay * MS_PER_UNIT


def _build(
    rates_mbps: Sequence[float],
    loss_percent: Sequence[float],
    delays_ms: Sequence[float],
    risks: Optional[Sequence[float]],
) -> ChannelSet:
    n = len(rates_mbps)
    if risks is None:
        risks = [DEFAULT_RISK] * n
    return ChannelSet.from_vectors(
        risks=list(risks),
        losses=[p / 100.0 for p in loss_percent],
        delays=[ms_to_delay(ms) for ms in delays_ms],
        rates=[mbps_to_rate(mbps) for mbps in rates_mbps],
        names=[f"ch{i}" for i in range(n)],
    )


def identical_setup(
    mbps: float = 100.0,
    n: int = 5,
    risks: Optional[Sequence[float]] = None,
) -> ChannelSet:
    """The Identical setup: n equal channels at ``mbps`` each."""
    if mbps <= 0:
        raise ValueError(f"channel rate must be positive, got {mbps}")
    return _build([mbps] * n, [0.0] * n, [0.0] * n, risks)


def diverse_setup(risks: Optional[Sequence[float]] = None) -> ChannelSet:
    """The Diverse setup: 5, 20, 60, 65, 100 Mbps, negligible loss/delay."""
    n = len(DIVERSE_RATES_MBPS)
    return _build(DIVERSE_RATES_MBPS, [0.0] * n, [0.0] * n, risks)


def lossy_setup(risks: Optional[Sequence[float]] = None) -> ChannelSet:
    """The Lossy setup: Diverse rates with 1, .5, 1, 2, 3 percent loss."""
    n = len(DIVERSE_RATES_MBPS)
    return _build(DIVERSE_RATES_MBPS, LOSSY_LOSS_PERCENT, [0.0] * n, risks)


def delayed_setup(risks: Optional[Sequence[float]] = None) -> ChannelSet:
    """The Delayed setup: Diverse rates with 2.5, .25, 12.5, 5, .5 ms delay."""
    n = len(DIVERSE_RATES_MBPS)
    return _build(DIVERSE_RATES_MBPS, [0.0] * n, DELAYED_DELAY_MS, risks)


#: Names of the canonical fault scenarios available to the testbed setups
#: (see :data:`repro.netsim.faults.CANONICAL_SCENARIOS`).
FAULT_SCENARIOS = tuple(sorted(CANONICAL_SCENARIOS))


def testbed_fault_plan(
    scenario: str,
    start_ms: float = 100.0,
    stop_ms: float = 250.0,
    channel: Optional[int] = None,
    **overrides,
) -> FaultPlan:
    """A canonical fault scenario in the testbed's units.

    Times are given on the paper's millisecond axis and converted to
    simulator unit times; scenario-specific overrides (e.g. ``period`` for
    the flap, ``p_bad`` for the burst) are forwarded in unit times.

    The ``delay_spike`` scenario also accepts ``delay_ms``/``baseline_ms``
    overrides, converted here.
    """
    kwargs = dict(overrides)
    if scenario == "delay_spike":
        if "delay_ms" in kwargs:
            kwargs["delay"] = ms_to_delay(kwargs.pop("delay_ms"))
        if "baseline_ms" in kwargs:
            kwargs["baseline"] = ms_to_delay(kwargs.pop("baseline_ms"))
    if channel is not None:
        kwargs["channel"] = channel
    return canonical_plan(
        scenario, ms_to_delay(start_ms), ms_to_delay(stop_ms), **kwargs
    )
