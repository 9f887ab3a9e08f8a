"""Content-addressed on-disk result cache for sweeps.

Every completed :class:`~repro.sweep.spec.SweepPoint` can be stored as one
small JSON file under ``results/cache/<spec_id>/<key>.json``.  The key is
a SHA-256 over the point's identity (spec id + params, canonical JSON)
*plus* a fingerprint of the code computing it, so:

* re-running an interrupted sweep recomputes only the missing points
  (resume-after-interrupt for free);
* editing the simulator or protocol invalidates every stale entry at once
  (the fingerprint changes, so every key changes);
* the cache never returns a wrong answer silently -- a corrupted or
  truncated entry is logged and treated as a miss, never raised.

Entries are written atomically (temp file + ``os.replace``) so a run
killed mid-write leaves either the old entry or none, never a torn file.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from functools import lru_cache
from typing import Any, Dict, Optional

from repro.sweep.spec import SweepPoint, canonical_json

__all__ = ["ResultCache", "code_fingerprint", "open_cache", "DEFAULT_CACHE_DIR"]

logger = logging.getLogger(__name__)

#: Default cache location, relative to the invoking working directory.
DEFAULT_CACHE_DIR = os.path.join("results", "cache")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """The fingerprint mixed into every cache key by default: SHA-256 over
    every ``.py`` source file of the ``repro`` package.

    Files are hashed as ``(relative path, content)`` pairs in sorted path
    order, so the digest is stable across machines and processes but
    changes whenever any code that could affect a result changes.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    sources = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                sources.append((os.path.relpath(path, root), path))
    for relpath, path in sources:
        digest.update(relpath.encode())
        digest.update(b"\x00")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\x00")
    return digest.hexdigest()


class ResultCache:
    """Content-addressed JSON store of sweep-point results.

    Args:
        root: cache directory (created lazily on first write).
        fingerprint: code/config fingerprint mixed into every key; defaults
            to :func:`code_fingerprint`.  Pass an explicit value to share a
            cache across code changes you know to be result-preserving, or
            to test invalidation.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR, fingerprint: Optional[str] = None):
        self.root = root
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()

    # -- keys and paths ---------------------------------------------------------

    def key(self, point: SweepPoint) -> str:
        """The content address of ``point`` under the active fingerprint."""
        material = canonical_json(
            {
                "identity": point.identity(),
                "fingerprint": self.fingerprint,
            }
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def path(self, point: SweepPoint) -> str:
        """Where ``point``'s entry lives (``<root>/<spec_id>/<key>.json``)."""
        spec_dir = point.spec_id.replace(os.sep, "_").replace("/", "_")
        return os.path.join(self.root, spec_dir, self.key(point) + ".json")

    # -- access -----------------------------------------------------------------

    def get(self, point: SweepPoint) -> Optional[Dict[str, Any]]:
        """The stored entry for ``point``, or None on miss.

        A corrupted entry (unreadable, invalid JSON, or missing required
        fields) is logged, removed, and reported as a miss: the point is
        simply recomputed, the sweep never crashes on a bad cache file.
        """
        path = self.path(point)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning("corrupted cache entry %s (%s); recomputing", path, exc)
            self._discard(path)
            return None
        if not isinstance(entry, dict) or "value" not in entry or "key" not in entry:
            logger.warning("malformed cache entry %s; recomputing", path)
            self._discard(path)
            return None
        if entry["key"] != self.key(point):
            # A hash collision in the filename space, or a tampered file:
            # either way it is not this point's result.
            logger.warning("cache entry %s does not match its key; recomputing", path)
            self._discard(path)
            return None
        return entry

    def put(self, point: SweepPoint, value: Any, duration: float) -> str:
        """Store ``value`` for ``point``; returns the entry path.

        ``value`` must be JSON-serialisable (sweep point functions return
        plain dicts/lists of scalars by contract).  The write is atomic.
        """
        path = self.path(point)
        entry = {
            "key": self.key(point),
            "spec_id": point.spec_id,
            "params": dict(point.params),
            "fingerprint": self.fingerprint,
            "seed": point.seed,
            "value": value,
            "duration": duration,
        }
        payload = json.dumps(entry, sort_keys=True, indent=1, allow_nan=False)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            self._discard(tmp)
            raise
        return path

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass


def open_cache(resume: bool, cache_dir: Optional[str]) -> Optional[ResultCache]:
    """The cache a sweep command runs with: one under ``cache_dir``
    (default :data:`DEFAULT_CACHE_DIR`) when ``--resume`` is set or
    ``--cache-dir`` is given, else None.

    The one rule both sweep front ends (``repro sweep``/``repro attack``
    and ``python -m repro.experiments.runner``) follow.
    """
    if resume or cache_dir is not None:
        return ResultCache(cache_dir or DEFAULT_CACHE_DIR)
    return None
