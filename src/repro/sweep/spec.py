"""Declarative sweep specifications with deterministic per-point seeds.

Every evaluation in the paper is a sweep -- over κ, µ, channel setups,
offered rates and seeds.  A :class:`SweepSpec` names such a grid once and
enumerates it as picklable :class:`SweepPoint` descriptors, so the same
definition drives the serial loop, the process pool and the result cache.

Two properties are load-bearing:

1. **Deterministic enumeration.**  Points are the grid's entries in list
   order, so a spec enumerates the same points in the same order in every
   process and on every run.
2. **Deterministic seeds.**  Each point's RNG seed is derived by hashing
   ``(spec_id, point params)`` -- never from worker identity, submission
   order or a shared counter -- so results are independent of how the
   sweep is scheduled, and distinct grid points can never collide the way
   ad-hoc arithmetic like ``seed + int(kappa * 1000) + int(mu * 10)`` can.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Sequence

__all__ = ["SweepPoint", "SweepSpec", "canonical_json", "derive_seed"]


def canonical_json(value: Any) -> str:
    """Render ``value`` as canonical JSON (sorted keys, compact, no NaN).

    The canonical form is the hashing substrate for seeds and cache keys,
    so it must be identical across processes, runs and platforms: floats
    serialise via ``repr`` (shortest round-trip form, stable for IEEE
    doubles), keys are sorted, and non-finite floats are rejected rather
    than emitted as non-standard tokens.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def derive_seed(spec_id: str, params: Mapping[str, Any]) -> int:
    """The deterministic seed for the point ``(spec_id, params)``.

    A 63-bit integer from SHA-256 over the canonical JSON of the pair --
    collision-free in practice across any realistic grid, and depending
    only on the point's identity (the same point gets the same seed no
    matter which worker computes it, or in what order).
    """
    digest = hashlib.sha256(
        canonical_json({"spec_id": spec_id, "params": dict(params)}).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class SweepPoint:
    """One picklable point of a sweep: its identity plus its parameters.

    ``params`` holds everything the point function needs (JSON-serialisable
    scalars and lists only, so the point can be hashed and cached); the
    derived :attr:`seed` is the only randomness root a point function
    should use.
    """

    spec_id: str
    index: int
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze a private copy and verify the params are canonicalisable
        # now, so every later hash of this point is well-defined.
        object.__setattr__(self, "params", dict(self.params))
        canonical_json(self.params)

    @property
    def seed(self) -> int:
        """Deterministic per-point seed (see :func:`derive_seed`)."""
        return derive_seed(self.spec_id, self.params)

    def identity(self) -> str:
        """Canonical JSON of ``(spec_id, params)`` -- the cache-key substrate.

        ``index`` is deliberately excluded: a point's identity is *what* it
        computes, not where it sits in one particular enumeration.
        """
        return canonical_json({"spec_id": self.spec_id, "params": dict(self.params)})


@dataclass(frozen=True)
class SweepSpec:
    """A named parameter grid: one ``grid`` entry per point, over ``base``.

    Args:
        spec_id: stable name of the sweep (include anything that changes
            its meaning, e.g. ``"fig3/identical"``).  Two specs with the
            same id and params share seeds and cache entries -- that is
            the point.
        grid: the per-point param dicts in enumeration order, each merged
            over ``base``; a comprehension writes a cartesian product
            (outer loop first) or a coupled grid (e.g. the µ range that
            depends on κ) alike.
        base: parameters common to every point (durations, setup names,
            the root seed...).  A grid entry may not shadow a base key.
    """

    spec_id: str
    grid: Sequence[Mapping[str, Any]]
    base: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", [dict(entry) for entry in self.grid])
        object.__setattr__(self, "base", dict(self.base))
        shadowed = {key for entry in self.grid for key in entry} & set(self.base)
        if shadowed:
            raise ValueError(f"variable params shadow base params: {sorted(shadowed)}")

    def __len__(self) -> int:
        return len(self.grid)

    def __iter__(self) -> Iterator[SweepPoint]:
        for index, entry in enumerate(self.grid):
            params: Dict[str, Any] = dict(self.base)
            params.update(entry)
            yield SweepPoint(spec_id=self.spec_id, index=index, params=params)

    def points(self) -> List[SweepPoint]:
        """The full grid as a list, in deterministic enumeration order."""
        return list(self)
