"""Disk-backed artifact cache shared across processes.

The in-memory plan and analysis caches die with their process, so every
bench ``--jobs`` worker and every service pool process re-derives the same
workload analyses, plans and (deterministic) execution results.  This
module persists those artifacts under a configurable cache directory in
three tiers:

* ``analysis`` — :class:`~repro.core.analysis.WorkloadAnalysis` /
  ``TreeAnalysis`` artifacts, keyed on the workload fingerprint alone;
* ``plan`` — built ``(LaunchGraph, schedule)`` plans (bare graphs for tree
  templates), keyed on the full plan key;
* ``run`` — :class:`~repro.gpusim.executor.ExecutionResult` objects keyed
  on ``(plan key, engine)``.  The simulator is deterministic, so a result
  is a pure function of its key; the run tier is bypassed whenever a
  caller asks for a timeline (that needs a live run).  Traced runs use it
  like untraced ones, so a run-tier hit emits no kernel events;
* ``select`` — :class:`~repro.ir.select.Selection` records of the
  ``template="auto"`` lowering, keyed on ``(workload fingerprint, device
  fingerprint, pass-config key, params, engine)``;
* ``lineage`` — :class:`~repro.core.mutation.MutationDelta` records of
  committed workload mutations, keyed on the *child* fingerprint.  Each
  record names its parent fingerprint, so a warm process holding only the
  mutated workload can walk the chain back to the nearest ancestor with a
  cached analysis and replay the deltas incrementally
  (:meth:`WorkloadAnalysis.apply_delta
  <repro.core.analysis.WorkloadAnalysis.apply_delta>`) instead of
  rebuilding from scratch.  The resolved analysis lands in the
  ``analysis`` tier like any other, so later walks stop after one hop.

Entries are pickles named by a blake2b digest of the format version, the
code digest (:func:`code_digest`: every ``.py`` file of the ``repro``
package), the tier and the key's ``repr`` — a change to any source file
reads as a cold cache, never as another program's result.  Unpickling
runs code, so the cache directory must be trusted.  Writes are atomic (temp file + ``os.replace``) so
concurrent workers never observe a torn entry; reads are
corruption-tolerant — any unreadable entry counts as a miss (and bumps the
``corrupt`` counter), never raises.  Keys must therefore be repr-stable
across processes: fingerprint strings, names and numbers, not live
objects.

Disk usage is bounded: the cache evicts least-recently-used entries
(mtime order — hits refresh an entry's mtime) whenever the total size
exceeds ``max_bytes`` (default 1 GiB, overridable per instance or via the
``REPRO_CACHE_MAX_BYTES`` environment variable; ``0`` disables the cap).
Eviction is a plain atomic ``unlink``: a concurrent reader that already
opened the file keeps reading its snapshot, one that races the unlink
sees a miss and rebuilds — exactly the corruption-degradation contract
reads already have.

Configuration is process-wide: :func:`configure_artifact_cache` sets (or
disables) the cache, and setting it also exports ``REPRO_CACHE_DIR`` so
pool workers spawned afterwards inherit the same directory;
:func:`get_artifact_cache` lazily picks that variable up in processes that
were never configured explicitly.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path

from repro import obs
from repro.errors import ConfigError

__all__ = [
    "ArtifactCache",
    "TIERS",
    "code_digest",
    "configure_artifact_cache",
    "get_artifact_cache",
]

#: cache tiers, in pipeline order
TIERS = ("analysis", "lineage", "select", "plan", "run")

#: bump to invalidate every existing cache entry on a format change
_FORMAT_VERSION = "v2"

#: environment variable carrying the cache dir into pool workers
ENV_VAR = "REPRO_CACHE_DIR"

#: environment variable overriding the default size cap (bytes; 0 = off)
SIZE_ENV_VAR = "REPRO_CACHE_MAX_BYTES"

#: default disk budget when neither the constructor nor the environment
#: says otherwise
DEFAULT_MAX_BYTES = 1 << 30  # 1 GiB

#: puts between full directory rescans (concurrent writers drift the
#: incrementally-tracked total; a periodic rescan re-anchors it)
_RESCAN_EVERY = 64


#: digest of the package source; computed on the first disk access
_code_digest: str | None = None


def code_digest() -> str:
    """blake2b over every ``.py`` file of the ``repro`` package, in
    relative-path order; computed once per process."""
    global _code_digest
    if _code_digest is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.blake2b(digest_size=16)
        for path in sorted(root.rglob("*.py"),
                           key=lambda p: p.relative_to(root).as_posix()):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
        _code_digest = h.hexdigest()
    return _code_digest


def _default_max_bytes() -> int:
    raw = os.environ.get(SIZE_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_BYTES
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_MAX_BYTES


class ArtifactCache:
    """Pickle store under ``cache_dir`` with per-tier hit/miss counters.

    ``max_bytes`` bounds total disk usage (LRU eviction by mtime; 0 means
    unbounded).  ``None`` defers to ``REPRO_CACHE_MAX_BYTES`` or the
    1 GiB default.
    """

    def __init__(self, cache_dir: str | Path,
                 max_bytes: int | None = None) -> None:
        self.cache_dir = Path(cache_dir)
        self.max_bytes = _default_max_bytes() if max_bytes is None else max(0, int(max_bytes))
        self.stats: dict[str, dict[str, int]] = {
            tier: {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
                   "evictions": 0}
            for tier in TIERS
        }
        #: incrementally-tracked total size; None = not yet scanned
        self._size_bytes: int | None = None
        self._puts_since_scan = 0

    def _path(self, tier: str, key: object) -> Path:
        if tier not in TIERS:
            raise ConfigError(f"unknown cache tier {tier!r}; known: {TIERS}")
        digest = hashlib.blake2b(
            f"{_FORMAT_VERSION}|{code_digest()}|{tier}|{key!r}".encode(),
            digest_size=16,
        ).hexdigest()
        return self.cache_dir / tier / f"{digest}.pkl"

    def get(self, tier: str, key: object) -> object | None:
        """The cached artifact, or None.  Never raises on bad entries."""
        path = self._path(tier, key)
        stats = self.stats[tier]
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            stats["misses"] += 1
            if obs.enabled():
                obs.add_counter(f"artifact_cache.{tier}.misses")
            return None
        except Exception:
            # torn/corrupted/alien entry: degrade to a miss, never crash
            stats["corrupt"] += 1
            stats["misses"] += 1
            if obs.enabled():
                obs.add_counter(f"artifact_cache.{tier}.corrupt")
                obs.add_counter(f"artifact_cache.{tier}.misses")
            return None
        stats["hits"] += 1
        if obs.enabled():
            obs.add_counter(f"artifact_cache.{tier}.hits")
        try:
            # refresh recency so LRU eviction spares hot entries
            os.utime(path)
        except OSError:
            pass
        return value

    def put(self, tier: str, key: object, value: object) -> None:
        """Store an artifact atomically; I/O failures are swallowed
        (a full or read-only disk degrades the cache, not the run)."""
        path = self._path(tier, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                replaced = path.stat().st_size
            except OSError:
                replaced = 0
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                written = os.stat(tmp).st_size
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            return
        self.stats[tier]["writes"] += 1
        if obs.enabled():
            obs.add_counter(f"artifact_cache.{tier}.writes")
        if self.max_bytes:
            self._account_and_evict(written - replaced)

    # -------------------------------------------------------- size bounding
    def _scan_entries(self) -> list[tuple[float, int, str, "Path"]]:
        """All cache entries as ``(mtime, size, tier, path)`` tuples."""
        entries = []
        for tier in TIERS:
            tier_dir = self.cache_dir / tier
            try:
                with os.scandir(tier_dir) as it:
                    for entry in it:
                        if not entry.name.endswith(".pkl"):
                            continue
                        try:
                            st = entry.stat()
                        except OSError:
                            continue  # raced an eviction/cleanup
                        entries.append(
                            (st.st_mtime, st.st_size, tier, Path(entry.path))
                        )
            except OSError:
                continue
        return entries

    def _account_and_evict(self, delta: int) -> None:
        """Track total size incrementally; evict LRU entries over the cap.

        Eviction is a plain ``os.unlink`` per entry: atomic, and safe
        against concurrent readers — an open file keeps serving its
        reader, a read racing the unlink degrades to a miss.
        """
        self._puts_since_scan += 1
        if self._size_bytes is None or self._puts_since_scan >= _RESCAN_EVERY:
            self._size_bytes = sum(e[1] for e in self._scan_entries())
            self._puts_since_scan = 0
        else:
            self._size_bytes += delta
        if self._size_bytes <= self.max_bytes:
            return
        entries = sorted(self._scan_entries())  # oldest mtime first
        total = sum(e[1] for e in entries)
        for _, size, tier, path in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # already gone (another process evicted it)
            total -= size
            self.stats[tier]["evictions"] += 1
            if obs.enabled():
                obs.add_counter(f"artifact_cache.{tier}.evictions")
        self._size_bytes = total
        self._puts_since_scan = 0

    def snapshot(self) -> dict:
        """Per-tier counters plus totals (``--profile`` / BENCH records)."""
        total = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
                 "evictions": 0}
        tiers = {}
        for tier in TIERS:
            tiers[tier] = dict(self.stats[tier])
            for k in total:
                total[k] += self.stats[tier][k]
        return {"cache_dir": str(self.cache_dir), "max_bytes": self.max_bytes,
                "tiers": tiers, **total}


#: process-wide cache instance; ``False`` = not yet configured (allows the
#: REPRO_CACHE_DIR fallback), ``None`` = explicitly disabled
_cache: ArtifactCache | None | bool = False


def configure_artifact_cache(
    cache_dir: str | Path | None,
    max_bytes: int | None = None,
) -> ArtifactCache | None:
    """Set the process-wide disk cache (None disables it).

    Enabling also exports ``REPRO_CACHE_DIR`` so worker processes forked or
    spawned afterwards share the same directory without explicit plumbing.
    ``max_bytes`` caps disk usage (None defers to ``REPRO_CACHE_MAX_BYTES``
    or the 1 GiB default; 0 disables the cap).
    """
    global _cache
    if cache_dir is None:
        _cache = None
        os.environ.pop(ENV_VAR, None)
        return None
    _cache = ArtifactCache(cache_dir, max_bytes=max_bytes)
    os.environ[ENV_VAR] = str(_cache.cache_dir)
    return _cache


def get_artifact_cache() -> ArtifactCache | None:
    """The process-wide disk cache, or None when disabled.

    Unconfigured processes adopt ``REPRO_CACHE_DIR`` from the environment
    (how bench and service pool workers find the shared directory).
    """
    global _cache
    if _cache is False:
        env = os.environ.get(ENV_VAR)
        _cache = ArtifactCache(env) if env else None
    return _cache
