"""Sweep execution: serial or process-pool, with isolation and a cache.

:class:`SweepRunner` takes a :class:`~repro.sweep.spec.SweepSpec` and a
module-level *point function* ``fn(params, seed) -> JSON-serialisable
value`` and executes every point, handing each its deterministic derived
seed:

* ``jobs=1`` (the default) runs in-process, in enumeration order -- the
  reference path, numerically identical to the nested loops it replaces;
* ``jobs>1`` fans points out to a ``ProcessPoolExecutor``.  Because each
  point's seed derives from its identity (never from worker order), the
  parallel results are *identical* to the serial ones, just faster.

Every point is failure-isolated: an exception inside ``fn`` is caught
and recorded on that point's :class:`SweepResult` -- one diverging point
never takes down a 500-point overnight sweep.  A point function is a pure
function of its params and seed, so running a failed point again in the
same sweep would fail the same way; it is never retried there.  With a
:class:`~repro.sweep.cache.ResultCache` attached, finished points are
persisted as they complete and are served from disk on re-runs, which is
what makes ``--resume`` work (failed points are never cached, so a re-run
computes them again).
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.sweep.cache import ResultCache
from repro.sweep.spec import SweepPoint, SweepSpec

__all__ = ["SweepResult", "SweepRunner", "SweepError", "values"]


class SweepError(RuntimeError):
    """Raised by :func:`values` when a sweep point failed permanently."""


@dataclass
class SweepResult:
    """The outcome of one sweep point.

    Exactly one of ``value``/``error`` is meaningful: ``error`` is None on
    success, otherwise the formatted traceback of the failure.
    ``duration`` is the wall time spent computing (0.0 for cache hits).
    """

    point: SweepPoint
    value: Any = None
    error: Optional[str] = None
    duration: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def values(results: Iterable[SweepResult]) -> List[Any]:
    """The value of every result, raising :class:`SweepError` on failures."""
    out = []
    for result in results:
        if not result.ok:
            raise SweepError(
                f"sweep point {result.point.index} "
                f"({result.point.params}) failed:\n{result.error}"
            )
        out.append(result.value)
    return out


def _execute_point(fn: Callable[[Dict[str, Any], int], Any], point: SweepPoint) -> SweepResult:
    """Run ``fn`` on one point with failure isolation.

    Module-level so it is picklable and runs identically in-process and in
    a pool worker.  ``fn`` receives the point's params and its derived
    seed -- the only randomness root a point function should use.
    """
    started = time.perf_counter()
    try:
        value = fn(dict(point.params), point.seed)
    except Exception:
        return SweepResult(
            point=point,
            error=traceback.format_exc(),
            duration=time.perf_counter() - started,
        )
    return SweepResult(point=point, value=value, duration=time.perf_counter() - started)


@dataclass
class SweepStats:
    """Counters for the last :meth:`SweepRunner.run` call."""

    points: int = 0
    cache_hits: int = 0
    computed: int = 0
    failures: int = 0
    wall_time: float = 0.0

    def summary(self) -> str:
        """One greppable line (used by the CLI and the CI smoke check)."""
        return (
            f"sweep: points={self.points} cache_hits={self.cache_hits} "
            f"computed={self.computed} failures={self.failures} "
            f"wall={self.wall_time:.2f}s"
        )


@dataclass
class SweepRunner:
    """Executes sweeps; see the module docstring for semantics.

    Args:
        jobs: worker processes; 1 (default) runs serially in-process.
        cache: optional :class:`ResultCache`; hits skip computation and
            misses are persisted on success (failures are never cached).
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    stats: SweepStats = field(default_factory=SweepStats)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def run(
        self, spec: SweepSpec, fn: Callable[[Dict[str, Any], int], Any]
    ) -> List[SweepResult]:
        """Execute every point of ``spec`` through ``fn``.

        Returns one :class:`SweepResult` per point, in enumeration order
        regardless of completion order, and refreshes :attr:`stats`.
        """
        points = spec.points()
        started = time.perf_counter()
        self.stats = SweepStats(points=len(points))

        results: List[Optional[SweepResult]] = [None] * len(points)
        pending: List[int] = []
        for slot, point in enumerate(points):
            hit = self._from_cache(point)
            if hit is not None:
                results[slot] = hit
                self.stats.cache_hits += 1
            else:
                pending.append(slot)

        if pending:
            if self.jobs == 1:
                for slot in pending:
                    results[slot] = _execute_point(fn, points[slot])
                    self._finish(results[slot])
            else:
                self._run_pool(points, pending, fn, results)

        self.stats.wall_time = time.perf_counter() - started
        return [result for result in results if result is not None]

    # -- internals --------------------------------------------------------------

    def _run_pool(
        self,
        points: List[SweepPoint],
        pending: List[int],
        fn: Callable[[Dict[str, Any], int], Any],
        results: List[Optional[SweepResult]],
    ) -> None:
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                pool.submit(_execute_point, fn, points[slot]): slot
                for slot in pending
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    slot = futures[future]
                    try:
                        result = future.result()
                    except Exception:
                        # The worker process died (OOM, signal) before it
                        # could even report: isolate like any other failure.
                        result = SweepResult(
                            point=points[slot], error=traceback.format_exc()
                        )
                    results[slot] = result
                    self._finish(result)

    def _from_cache(self, point: SweepPoint) -> Optional[SweepResult]:
        if self.cache is None:
            return None
        entry = self.cache.get(point)
        if entry is None:
            return None
        return SweepResult(point=point, value=entry["value"], cached=True)

    def _finish(self, result: SweepResult) -> None:
        """Bookkeeping for one computed (non-cached) result."""
        self.stats.computed += 1
        if not result.ok:
            self.stats.failures += 1
        elif self.cache is not None:
            self.cache.put(result.point, result.value, result.duration)
