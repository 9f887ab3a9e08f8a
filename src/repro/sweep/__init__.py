"""Parallel experiment orchestration with a content-addressed result cache.

Every evaluation in the paper (Figures 2-7) and every Monte-Carlo
validation is a sweep over a parameter grid.  This package is the one
place that pattern lives:

* :mod:`repro.sweep.spec` -- :class:`SweepSpec` declares a grid (an
  explicit list of point params over shared base params) and enumerates
  picklable :class:`SweepPoint` descriptors, each with a deterministic
  seed derived by hashing ``(spec_id, params)`` -- never from worker
  order;
* :mod:`repro.sweep.runner` -- :class:`SweepRunner` executes points
  serially (the reference path) or on a process pool (``jobs=N``), with
  per-point failure isolation and structured :class:`SweepResult`
  outcomes;
* :mod:`repro.sweep.cache` -- :class:`ResultCache`, a content-addressed
  JSON store under ``results/cache/`` keyed on the point identity plus a
  code fingerprint, giving resume-after-interrupt and incremental re-runs
  for free; :func:`open_cache` is the one rule deciding when a sweep
  command uses it.

Because seeds attach to point identity, ``jobs=1`` and ``jobs=N`` produce
*identical* results -- parallelism is purely a wall-time lever.  See
``docs/SWEEPS.md`` for the spec format, cache layout and resume semantics.
"""

from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache, code_fingerprint, open_cache
from repro.sweep.runner import SweepError, SweepResult, SweepRunner, SweepStats, values
from repro.sweep.spec import SweepPoint, SweepSpec, canonical_json, derive_seed

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "SweepRunner",
    "SweepResult",
    "SweepStats",
    "SweepError",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "code_fingerprint",
    "open_cache",
    "canonical_json",
    "derive_seed",
    "values",
]
