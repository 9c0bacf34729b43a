"""The one in-process cache store and the one caching ladder.

Every point of a sweep is a ``(workload, template, params)`` plan, and the
harness memoizes each stage of building it.  All of those memos are
instances of one bounded LRU store, :class:`PlanCache`, registered as
named *tiers*:

==========  =====  ==========================================================
tier        bound  holds
==========  =====  ==========================================================
``plan``      128  built ``(LaunchGraph, schedule)`` plans (bare graphs for
                   tree templates), keyed on :func:`~repro.core.base.plan_key`
``analysis``  256  ``WorkloadAnalysis`` / ``TreeAnalysis``, keyed on
                   ``(kind, workload fingerprint)``
``select``    256  ``template="auto"`` :class:`~repro.ir.select.Selection`
``phase``     256  costed mapping phases (``core.mapping``), replayed onto
                   later builders
``shard``      64  per-device shard layouts, ``None`` when a workload
                   cannot shard
==========  =====  ==========================================================

Every tier is reached through :func:`get_or_build`: the memory tier, then
the disk tier of the same name (:mod:`~repro.core.artifactcache`, when one
is configured and has such a tier), then the build, whose result is
stored in both.  :func:`clear_caches` and :func:`cache_stats` cover every
tier, the disk tiers and the occupancy calculator's ``lru_cache``.

Keys are content hashes — workload fingerprints are blake2b digests of
the trace arrays, the device enters as its fingerprint, and templates
declare the :class:`TemplateParams` fields their plans read via
``PLAN_RELEVANT_PARAMS`` — so structurally identical inputs share an
entry regardless of object identity.  Cached values are shared, not
copied: treat a :class:`LaunchGraph` obtained through the cache as
read-only (the executor and profiler already do).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs
from repro.core.artifactcache import TIERS as DISK_TIERS, get_artifact_cache
from repro.errors import ConfigError

__all__ = [
    "CacheStats",
    "PlanCache",
    "TIER_BOUNDS",
    "cache_stats",
    "clear_caches",
    "default_cache",
    "fingerprint_of",
    "get_or_build",
    "set_plan_cache_enabled",
    "tier",
]


def fingerprint_of(workload) -> str:
    """Content fingerprint of any workload the templates accept.

    Thin dispatch over the workload's own (memoized) ``fingerprint()`` —
    the identity the plan cache and the serving layer's micro-batcher both
    key on.  Raises :class:`ConfigError` for objects with no fingerprint.
    """
    fingerprint = getattr(workload, "fingerprint", None)
    if fingerprint is None:
        raise ConfigError(
            f"{type(workload).__name__} has no fingerprint(); expected a "
            "NestedLoopWorkload or RecursiveTreeWorkload"
        )
    return fingerprint()


@dataclass
class CacheStats:
    """Counters of one :class:`PlanCache` tier."""

    hits: int = 0
    misses: int = 0
    #: named event counts beyond hits/misses (``disk_hits``: memory misses
    #: the disk tier served; the analysis tier adds its lineage counters)
    events: dict[str, int] = field(default_factory=dict)

    def count(self, event: str) -> None:
        """Bump one named event counter."""
        self.events[event] = self.events.get(event, 0) + 1

    @property
    def lookups(self) -> int:
        """Total cache probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from the cache (0.0 with no probes)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict[str, float]:
        """Counters as a plain dict (for --profile output and BENCH json)."""
        return {"hits": self.hits, "misses": self.misses, **self.events,
                "hit_rate": round(self.hit_rate, 4)}


#: sentinel telling a miss apart from a cached ``None``
_MISSING = object()


class PlanCache:
    """Bounded LRU store with hit/miss counters — the one store class.

    ``maxsize`` bounds entries, not bytes — plans of paper-scale workloads
    run single-digit megabytes, so the plan tier's 128 stays well under a
    gigabyte while covering a full sweep.  ``name`` is the tier name: the
    obs counters (``<name>_cache.hits`` / ``.misses``) and the disk tier
    :func:`get_or_build` consults derive from it.  Lookups and stores
    are serialized by a per-store lock: device threads of a multi-device
    run and inline service batches share the tiers.
    """

    def __init__(self, maxsize: int = 128, enabled: bool = True,
                 name: str = "plan") -> None:
        if maxsize <= 0:
            raise ConfigError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.enabled = enabled
        self.name = name
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, default: object = None) -> object:
        """The cached value for ``key`` (a hit), else ``default`` (a miss).

        A disabled store answers ``default`` and counts nothing.
        """
        if not self.enabled:
            return default
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: tuple, value: object) -> None:
        """Store a value, evicting the least recently used entry if full."""
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def count(self, event: str) -> None:
        """Bump one named event counter (see :class:`CacheStats`)."""
        with self._lock:
            self.stats.count(event)

    def keys(self) -> list[tuple]:
        """Stored keys, least recently used first (eviction order)."""
        return list(self._entries)

    def snapshot(self) -> dict:
        """Occupancy + counters as a plain dict (``cache_stats()``,
        ``--profile`` output, BENCH json records)."""
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "enabled": self.enabled,
            **self.stats.snapshot(),
        }

    def clear(self, reset_stats: bool = False) -> None:
        """Drop all entries (optionally also the counters)."""
        with self._lock:
            self._entries.clear()
        if reset_stats:
            self.stats = CacheStats()


#: every in-process tier with its entry bound
TIER_BOUNDS = {"plan": 128, "analysis": 256, "select": 256, "phase": 256,
               "shard": 64}

_tiers = {name: PlanCache(bound, name=name)
          for name, bound in TIER_BOUNDS.items()}


def tier(name: str) -> PlanCache:
    """The process-wide store of one tier (see :data:`TIER_BOUNDS`)."""
    try:
        return _tiers[name]
    except KeyError:
        raise ConfigError(
            f"unknown cache tier {name!r}; known: {tuple(_tiers)}"
        ) from None


def default_cache() -> PlanCache:
    """The process-wide plan cache (the ``plan`` tier)."""
    return _tiers["plan"]


def get_or_build(store: PlanCache, key, build):
    """The caching ladder: memory tier, disk tier of the same name, build.

    A value found on disk or built by ``build()`` is stored in the memory
    tier, and a built one on disk too.  A cached ``None`` is a hit, not a
    miss.  Disk entries cannot hold ``None`` (a disk miss reads as
    ``None``), so only tiers without a disk tier may cache it.

    With tracing on, every probe bumps ``<tier>_cache.hits`` / ``.misses``;
    hits of the pipeline stages (the tiers with a disk tier: analysis,
    select, plan) also mark a ``<tier>.cache_hit`` instant.  The phase
    and shard memos only count, as they hit many times per build.
    """
    staged = store.name in DISK_TIERS
    value = store.get(key, _MISSING)
    if value is not _MISSING:
        if obs.enabled():
            if staged:
                obs.instant(f"{store.name}.cache_hit")
            obs.add_counter(f"{store.name}_cache.hits")
        return value
    if obs.enabled():
        obs.add_counter(f"{store.name}_cache.misses")
    disk = get_artifact_cache() if staged else None
    value = disk.get(store.name, key) if disk is not None else None
    if value is not None:
        store.count("disk_hits")
    else:
        value = build()
        if disk is not None:
            disk.put(store.name, key, value)
    store.put(key, value)
    return value


def clear_caches(reset_stats: bool = False) -> None:
    """Empty every in-process tier and the occupancy memo.

    Counters survive unless ``reset_stats``.  Disk entries stay: they are
    keyed on the code digest, so a code change never reads them back.
    """
    from repro.gpusim.occupancy import _occupancy_impl

    for store in _tiers.values():
        store.clear(reset_stats)
    _occupancy_impl.cache_clear()


def cache_stats() -> dict:
    """Every cache tier's counters in one dict.

    One key per in-process tier (:meth:`PlanCache.snapshot`), plus
    ``occupancy`` (the occupancy calculator's ``lru_cache``) and ``disk``
    (:meth:`ArtifactCache.snapshot`, None when no disk cache is active).
    """
    from repro.gpusim.occupancy import _occupancy_impl

    info = _occupancy_impl.cache_info()
    disk = get_artifact_cache()
    return {
        **{name: store.snapshot() for name, store in _tiers.items()},
        "occupancy": {"size": info.currsize, "maxsize": info.maxsize,
                      "hits": info.hits, "misses": info.misses},
        "disk": disk.snapshot() if disk is not None else None,
    }


def set_plan_cache_enabled(enabled: bool) -> None:
    """Toggle the process-wide plan tier (``--no-plan-cache`` style switches).

    Disabling drops stored entries **and** the hit/miss counters, so a
    subsequent re-enable starts genuinely cold: benchmark runs rely on
    the empty cache for a clean seed-path measurement, and ``--profile``
    / BENCH output relies on the zeroed counters — a "cold" cache must
    not report a nonzero hit rate inherited from before the toggle.
    """
    plan = default_cache()
    plan.enabled = enabled
    if not enabled:
        plan.clear(reset_stats=True)
