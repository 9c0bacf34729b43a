"""Plan-cache hardening: hit/cold equivalence, LRU eviction order,
counter accuracy under eviction, the exposed helpers, and the one store
and ladder behind every cache tier."""

import sys
import threading

import numpy as np
import pytest

import repro
from repro.core.plancache import (
    TIER_BOUNDS,
    PlanCache,
    cache_stats,
    clear_caches,
    default_cache,
    fingerprint_of,
    get_or_build,
    tier,
)
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import ConfigError
from repro.trees.generator import generate_tree


def make_workload(seed=0, outer=1200):
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.8, size=outer).clip(max=150).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=f"pc-{seed}", trip_counts=trips,
        streams=[AccessStream("x", rng.integers(0, nnz, size=nnz) * 4)],
    )


class TestHitEquivalence:
    def test_cache_hit_run_identical_to_cold_build(self):
        """A cache-hit TemplateRun must be indistinguishable from a cold
        one: same timing, same metrics, same schedule — and the graph is
        the *shared* cached object."""
        workload = make_workload(seed=11)
        cache = default_cache()
        cache.clear()
        cold = repro.run(workload, "dbuf-shared")
        hits0 = cache.stats.hits
        warm = repro.run(workload, "dbuf-shared")
        assert cache.stats.hits == hits0 + 1
        assert warm.graph is cold.graph  # shared, not rebuilt
        assert warm.time_ms == cold.time_ms
        assert warm.metrics == cold.metrics
        assert warm.result.cycles == cold.result.cycles
        assert set(warm.schedule) == set(cold.schedule)
        for phase in cold.schedule:
            np.testing.assert_array_equal(
                warm.schedule[phase], cold.schedule[phase])

    def test_tree_template_hit_equivalence(self):
        tree_wl = RecursiveTreeWorkload(
            generate_tree(depth=5, outdegree=3, seed=4), "heights")
        default_cache().clear()
        cold = repro.run(tree_wl, "rec-hier")
        warm = repro.run(tree_wl, "rec-hier")
        assert warm.graph is cold.graph
        assert warm.time_ms == cold.time_ms
        assert warm.metrics == cold.metrics


class TestLRUEviction:
    def test_eviction_order_is_least_recently_used(self):
        cache = PlanCache(maxsize=3)
        for key in ("a", "b", "c"):
            cache.put((key,), key.upper())
        assert cache.keys() == [("a",), ("b",), ("c",)]
        # touching "a" makes "b" the LRU victim
        assert cache.get(("a",)) == "A"
        assert cache.keys() == [("b",), ("c",), ("a",)]
        cache.put(("d",), "D")
        assert len(cache) == 3
        assert cache.keys() == [("c",), ("a",), ("d",)]
        assert cache.get(("b",)) is None  # evicted

    def test_put_existing_key_refreshes_recency(self):
        cache = PlanCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("a",), 10)  # refresh, not duplicate
        assert len(cache) == 2
        cache.put(("c",), 3)
        assert cache.get(("b",)) is None  # b was LRU
        assert cache.get(("a",)) == 10

    def test_counters_accurate_under_eviction(self):
        cache = PlanCache(maxsize=2)
        assert cache.get(("a",)) is None          # miss 1
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1             # hit 1
        cache.put(("c",), 3)                      # evicts b
        assert cache.get(("b",)) is None          # miss 2 (evicted)
        assert cache.get(("c",)) == 3             # hit 2
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.lookups == 4
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_maxsize_validation(self):
        with pytest.raises(ConfigError):
            PlanCache(maxsize=0)


class TestExposedHelpers:
    def test_fingerprint_of_dispatches(self):
        workload = make_workload(seed=2)
        assert fingerprint_of(workload) == workload.fingerprint()
        twin = make_workload(seed=2)
        assert fingerprint_of(workload) == fingerprint_of(twin)
        assert fingerprint_of(make_workload(seed=3)) != fingerprint_of(workload)
        tree_wl = RecursiveTreeWorkload(
            generate_tree(depth=3, outdegree=2, seed=1), "descendants")
        assert fingerprint_of(tree_wl) == tree_wl.fingerprint()
        with pytest.raises(ConfigError, match="no fingerprint"):
            fingerprint_of(object())

    def test_snapshot_shape(self):
        cache = PlanCache(maxsize=4)
        cache.put(("a",), 1)
        cache.get(("a",))
        cache.get(("zz",))
        snap = cache.snapshot()
        assert snap == {
            "size": 1, "maxsize": 4, "enabled": True,
            "hits": 1, "misses": 1, "hit_rate": 0.5,
        }

    def test_disabled_cache_snapshot(self):
        cache = PlanCache(enabled=False)
        cache.put(("a",), 1)
        assert cache.get(("a",)) is None
        assert cache.snapshot()["enabled"] is False
        assert cache.snapshot()["size"] == 0


@pytest.fixture()
def memory_only(monkeypatch):
    """Every tier empty, counters zeroed and the disk cache off."""
    from repro.core import artifactcache

    monkeypatch.setattr(artifactcache, "_cache", None)
    clear_caches(reset_stats=True)
    yield
    clear_caches(reset_stats=True)


@pytest.mark.parametrize("name", sorted(TIER_BOUNDS))
class TestEveryTier:
    """The one store and the one ladder, checked on every tier."""

    def test_get_put(self, name, memory_only):
        store = tier(name)
        assert store.get(("k",)) is None
        store.put(("k",), "v")
        assert store.get(("k",)) == "v"
        assert (store.stats.hits, store.stats.misses) == (1, 1)

    def test_lru_eviction_at_bound(self, name, memory_only):
        store = tier(name)
        bound = TIER_BOUNDS[name]
        assert store.maxsize == bound
        for i in range(bound):
            store.put((i,), i)
        assert store.get((0,)) == 0  # touched: key 1 is now the LRU
        store.put((bound,), bound)
        assert len(store) == bound
        assert store.get((1,)) is None
        assert store.get((0,)) == 0
        assert store.get((bound,)) == bound

    def test_cached_none_is_a_hit(self, name, memory_only):
        store = tier(name)
        calls = []

        def build():
            calls.append(1)
            return None

        assert get_or_build(store, ("none",), build) is None
        assert get_or_build(store, ("none",), build) is None
        assert len(calls) == 1
        assert (store.stats.hits, store.stats.misses) == (1, 1)

    def test_ladder_builds_once(self, name, memory_only):
        store = tier(name)
        built = get_or_build(store, ("x",), lambda: ["artifact"])
        assert get_or_build(store, ("x",), lambda: ["other"]) is built

    def test_clear_caches_empties_every_tier_keeps_counters(
            self, name, memory_only):
        for other in TIER_BOUNDS:
            tier(other).put(("k",), 1)
        store = tier(name)
        store.get(("k",))
        store.get(("absent",))
        clear_caches()
        assert all(len(tier(other)) == 0 for other in TIER_BOUNDS)
        assert (store.stats.hits, store.stats.misses) == (1, 1)
        assert cache_stats()[name]["hits"] == 1


class TestOneView:
    def test_cache_stats_covers_every_tier(self, memory_only):
        stats = cache_stats()
        assert set(TIER_BOUNDS) <= set(stats)
        assert stats["disk"] is None
        for name, bound in TIER_BOUNDS.items():
            assert stats[name]["maxsize"] == bound
        assert stats["occupancy"]["maxsize"] == 4096

    def test_clear_caches_clears_occupancy_memo(self, memory_only):
        from repro.gpusim.config import KEPLER_K20
        from repro.gpusim.occupancy import occupancy

        occupancy(KEPLER_K20, 128)
        assert cache_stats()["occupancy"]["size"] >= 1
        clear_caches()
        assert cache_stats()["occupancy"]["size"] == 0

    def test_unshardable_plan_cached_as_none(self, memory_only):
        from repro.core.sharding import shard_workload

        tiny = NestedLoopWorkload("tiny", np.array([5], dtype=np.int64))
        assert shard_workload(tiny, 4) is None
        assert shard_workload(tiny, 4) is None
        shard = tier("shard").stats
        assert (shard.hits, shard.misses) == (1, 1)

    def test_unknown_tier(self):
        with pytest.raises(ConfigError, match="unknown cache tier"):
            tier("plans")


class TestConcurrency:
    def test_threads_share_a_store_without_lost_updates(self):
        """More threads than cores hammer one small store through
        lookups, inserts and evictions; every probe is counted."""
        store = PlanCache(maxsize=8, name="stress")
        n_threads, n_ops = 8, 2000
        errors = []

        def work(seed):
            try:
                for i in range(n_ops):
                    key = ((seed * 7 + i) % 24,)
                    if store.get(key) is None:
                        store.put(key, i)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,))
                       for s in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert store.stats.lookups == n_threads * n_ops
        assert len(store) <= store.maxsize
