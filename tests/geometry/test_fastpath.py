"""Tests for the geometry fast path: interning, caching, batched tests."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import IndexSpace, fastpath
from repro.geometry.fastpath import (GeometryCache, batch_overlaps,
                                     geometry_cache, reset_geometry_cache,
                                     tenant_geometry_cache)
from repro.obs import MetricsRegistry

from tests.conftest import index_spaces


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts (and leaves behind) a pristine cache."""
    reset_geometry_cache()
    yield
    reset_geometry_cache()


def spaces(*ranges):
    return [IndexSpace.from_range(a, b) for a, b in ranges]


class TestInterning:
    def test_equal_content_shares_uid(self):
        cache = geometry_cache()
        a = IndexSpace.from_indices([1, 5, 9])
        b = IndexSpace.from_indices([9, 5, 1, 5])
        assert a is not b
        assert cache.uid_of(a) == cache.uid_of(b)

    def test_distinct_content_distinct_uid(self):
        cache = geometry_cache()
        a, b = spaces((0, 10), (0, 11))
        assert cache.uid_of(a) != cache.uid_of(b)

    def test_uid_memoized_on_instance(self):
        cache = geometry_cache()
        a = IndexSpace.from_range(0, 100)
        uid = cache.uid_of(a)
        assert a._uid == (cache._generation, uid)
        assert cache.uid_of(a) == uid

    def test_reset_distrusts_old_memos(self):
        cache = geometry_cache()
        a = IndexSpace.from_range(0, 10)
        old = cache.uid_of(a)
        cache.reset()
        assert cache.uid_of(a) is not None
        # fresh generation: the memo was recomputed, not trusted
        assert a._uid[0] == cache._generation
        assert old is not None  # the old value itself is irrelevant now

    def test_uid_not_pickled(self):
        cache = geometry_cache()
        a = IndexSpace.from_range(3, 17)
        cache.uid_of(a)
        restored = pickle.loads(pickle.dumps(a))
        assert restored == a
        assert restored._uid is None
        assert restored.bounds == a.bounds
        assert not restored.indices.flags.writeable

    def test_empty_space_pickles(self):
        restored = pickle.loads(pickle.dumps(IndexSpace.empty()))
        assert restored.is_empty and restored.bounds == (0, -1)


class TestOperationCache:
    def test_intersection_hit_returns_same_object(self):
        a, b = spaces((0, 100), (50, 150))
        first = a & b
        second = a & b
        assert first is second
        assert geometry_cache().hits >= 1

    def test_symmetric_ops_share_entries(self):
        cache = geometry_cache()
        a, b = spaces((0, 100), (50, 150))
        r1 = a & b
        r2 = b & a
        assert r1 is r2
        u1 = a | b
        u2 = b | a
        assert u1 is u2
        assert a.overlaps(b)
        before = cache.hits
        assert b.overlaps(a)
        assert cache.hits == before + 1

    def test_difference_is_order_sensitive(self):
        a, b = spaces((0, 100), (50, 150))
        assert (a - b) != (b - a)
        assert list((a - b).indices) == list(range(0, 50))
        assert list((b - a).indices) == list(range(100, 150))

    def test_cached_results_equal_raw(self):
        a = IndexSpace.from_indices([1, 3, 5, 7, 9])
        b = IndexSpace.from_indices([3, 4, 5, 6])
        for _ in range(2):  # second round served from cache
            assert (a & b) == a._intersection_raw(b)
            assert (a | b) == a._union_raw(b)
            assert (a - b) == a._difference_raw(b)
            assert a.overlaps(b) == a._overlaps_raw(b)
            assert a.isdisjoint(b) == (not a._overlaps_raw(b))

    def test_false_overlap_is_cached(self):
        cache = geometry_cache()
        a, b = spaces((0, 10), (20, 30))
        assert not a.overlaps(b)
        misses = cache.misses
        assert not a.overlaps(b)
        assert cache.misses == misses  # second answer came from the cache

    def test_invalidate_clears_results_keeps_uids(self):
        cache = geometry_cache()
        a, b = spaces((0, 100), (50, 150))
        uid = cache.uid_of(a)
        _ = a & b
        assert cache.stats()["entries"] == 1
        version = cache.version
        cache.invalidate()
        assert cache.stats()["entries"] == 0
        assert cache.version == version + 1
        assert cache.uid_of(a) == uid

    def test_eviction_clears_full_table(self):
        cache = GeometryCache(capacity=4)
        sps = spaces(*[(i, i + 10) for i in range(8)])
        for s in sps:
            cache.overlaps(sps[0], s)
        assert cache.evictions > 0
        assert len(cache._ovl) <= 4

    def test_stats_and_publish(self):
        cache = geometry_cache()
        a, b = spaces((0, 100), (50, 150))
        _ = a & b
        _ = a & b
        registry = MetricsRegistry()
        registry.publish("geom.cache", cache.stats(),
                         gauges=("interned", "entries"))
        assert registry.find("geom.cache.hits").value == cache.hits
        assert registry.find("geom.cache.misses").value == cache.misses
        assert "hits" in cache.render()


class TestBatchOverlaps:
    def test_matches_scalar_on_mixed_candidates(self, rng):
        query = IndexSpace(rng.choice(500, size=60, replace=False))
        candidates = [IndexSpace(rng.choice(500, size=k, replace=False))
                      for k in rng.integers(1, 40, size=25)]
        candidates += [IndexSpace.empty(),
                       IndexSpace.from_range(400, 410),
                       IndexSpace.from_range(1000, 1100)]  # bbox-disjoint
        want = [query._overlaps_raw(c) for c in candidates]
        got = batch_overlaps(query, candidates)
        assert got.dtype == bool
        assert list(got) == want

    def test_empty_query_and_no_candidates(self):
        assert list(batch_overlaps(IndexSpace.empty(),
                                   spaces((0, 5)))) == [False]
        assert list(batch_overlaps(IndexSpace.from_range(0, 5), [])) == []

    def test_second_pass_is_all_hits(self):
        cache = geometry_cache()
        query = IndexSpace.from_range(0, 50)
        candidates = spaces((10, 20), (60, 70), (40, 55))
        first = batch_overlaps(query, candidates)
        hits_before = cache.hits
        second = batch_overlaps(query, candidates)
        assert list(first) == list(second)
        # the bbox-disjoint candidate never reaches the cache; both others do
        assert cache.hits == hits_before + 2

    def test_results_seed_scalar_path(self):
        cache = geometry_cache()
        query = IndexSpace.from_range(0, 50)
        candidate = IndexSpace.from_range(25, 75)
        batch_overlaps(query, [candidate])
        misses = cache.misses
        assert query.overlaps(candidate)
        assert cache.misses == misses

    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(query=index_spaces(),
           candidates=st.lists(index_spaces(), max_size=12))
    def test_property_matches_scalar(self, query, candidates):
        got = batch_overlaps(query, candidates)
        assert list(got) == [query._overlaps_raw(c) for c in candidates]


# ----------------------------------------------------------------------
# the value path's two relations: the gather map and the subset test
# ----------------------------------------------------------------------
def _same_map(a, sub):
    """``a.positions_of(sub)`` agrees with the raw body: same map, or the
    same ``GeometryError`` for a non-subset."""
    try:
        want = a._positions_raw(sub)
    except GeometryError:
        with pytest.raises(GeometryError):
            a.positions_of(sub)
        return
    got = a.positions_of(sub)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestValuePathRelations:
    @settings(max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(a=index_spaces(), b=index_spaces(), pick=st.data())
    def test_equal_raw_on_miss_and_on_hit(self, a, b, pick):
        sub = IndexSpace.from_indices(pick.draw(st.lists(
            st.sampled_from(list(a)), max_size=a.size))) if a.size else a
        pairs = ((a, b), (b, a), (sub, a), (a, a))

        def check():
            for _ in range(2):  # miss, then hit
                for x, y in pairs:
                    assert x.issubset(y) == x._issubset_raw(y)
                    _same_map(y, x)

        reset_geometry_cache()
        check()
        geometry_cache().invalidate()
        check()  # from emptied tables
        with tenant_geometry_cache(GeometryCache()):
            check()  # routed to a tenant's cache

    def test_proper_subset_map_is_shared_and_read_only(self):
        cache = geometry_cache()
        a = IndexSpace.from_indices([1, 3, 5, 7, 9])
        sub = IndexSpace.from_indices([3, 9])
        first = a.positions_of(sub)
        hits = cache.hits
        again = a.positions_of(IndexSpace.from_indices([9, 3]))  # by content
        assert again is first and cache.hits == hits + 1
        assert list(first) == [1, 4]
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0
        # indexing with the shared map still copies: callers own the result
        values = np.arange(5.0)
        picked = values[first]
        picked[:] = -1
        assert list(values) == [0, 1, 2, 3, 4]

    def test_identity_map_is_fresh_and_never_stored(self):
        cache = geometry_cache()
        a = IndexSpace.from_indices([2, 4, 6])
        twin = IndexSpace.from_indices([6, 4, 2])
        one, two = a.positions_of(twin), a.positions_of(twin)
        assert list(one) == [0, 1, 2] and one is not two
        assert one.flags.writeable
        assert cache.stats()["entries"] == 0
        with pytest.raises(GeometryError):  # same size, other content
            a.positions_of(IndexSpace.from_indices([2, 4, 8]))

    def test_non_subset_raises_every_time_and_stores_nothing(self):
        cache = geometry_cache()
        a = IndexSpace.from_indices([1, 2, 3, 4])
        for bad in (IndexSpace.from_indices([4, 5]),
                    IndexSpace.from_indices([9])):
            for _ in range(2):
                with pytest.raises(GeometryError):
                    a.positions_of(bad)
        assert cache._pos == {}

    def test_subset_is_order_sensitive_and_false_is_cached(self):
        cache = geometry_cache()
        small, big = spaces((2, 5), (0, 10))
        assert small.issubset(big) and not big.issubset(small)
        misses = cache.misses
        assert small.issubset(big) and not big.issubset(small)
        assert big.issuperset(small)
        assert cache.misses == misses

    def test_tables_are_counted_cleared_and_routed(self):
        cache = geometry_cache()
        a = IndexSpace.from_range(0, 10)
        sub = IndexSpace.from_range(2, 5)
        a.positions_of(sub)
        sub.issubset(a)
        assert cache.stats()["entries"] == 2
        registry = MetricsRegistry()
        registry.publish("geom.cache", cache.stats(),
                         gauges=("interned", "entries"))
        assert registry.find("geom.cache.entries").value == 2
        cache.invalidate()
        assert cache.stats()["entries"] == 0 and cache._pos_bytes == 0
        a.positions_of(sub)
        cache.reset()
        assert cache.stats()["entries"] == 0 and cache._pos_bytes == 0
        before = cache.stats()
        tenant = GeometryCache()
        with tenant_geometry_cache(tenant):
            a.positions_of(sub)
            sub.issubset(a)
        assert tenant.stats()["entries"] == 2
        assert cache.stats() == before

    def test_map_table_is_bounded_in_bytes(self, monkeypatch):
        monkeypatch.setattr(fastpath, "POSITIONS_BYTES", 64 * 8)
        cache = geometry_cache()
        a = IndexSpace.from_range(0, 200)
        for start in range(0, 100, 10):
            a.positions_of(IndexSpace.from_range(start, start + 20))
            assert cache._pos_bytes <= 64 * 8
            assert cache._pos_bytes == sum(
                m.nbytes for m in cache._pos.values())
        assert cache.evictions > 0


# ----------------------------------------------------------------------
# tenant routing: per-thread cache overrides (the analysis service seam)
# ----------------------------------------------------------------------
class TestTenantRouting:
    def test_override_routes_ops_away_from_global(self):
        from repro.geometry.fastpath import tenant_geometry_cache

        tenant = GeometryCache()
        a = IndexSpace.from_range(0, 50)
        b = IndexSpace.from_range(25, 75)
        before = geometry_cache().stats()
        with tenant_geometry_cache(tenant):
            first = a & b
            second = a & b
        assert np.array_equal(first.indices, second.indices)
        assert tenant.misses > 0 and tenant.hits > 0
        assert geometry_cache().stats() == before

    def test_overrides_nest_and_restore(self):
        from repro.geometry.fastpath import (active_geometry_cache,
                                             tenant_geometry_cache)

        outer, inner = GeometryCache(), GeometryCache()
        assert active_geometry_cache() is geometry_cache()
        with tenant_geometry_cache(outer):
            assert active_geometry_cache() is outer
            with tenant_geometry_cache(inner):
                assert active_geometry_cache() is inner
            assert active_geometry_cache() is outer
        assert active_geometry_cache() is geometry_cache()

    def test_other_threads_keep_the_global_cache(self):
        import threading

        from repro.geometry.fastpath import (active_geometry_cache,
                                             tenant_geometry_cache)

        tenant = GeometryCache()
        seen = []

        def probe():
            seen.append(active_geometry_cache())

        with tenant_geometry_cache(tenant):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen == [geometry_cache()]

    def test_cache_generations_are_globally_unique(self):
        """Per-instance uid memos must never be trusted across cache
        instances: every cache (and every reset) draws a fresh,
        process-unique generation.  Regression for cross-tenant uid
        poisoning — a space first interned in the global cache must
        re-intern in a tenant cache, not reuse the stale memo."""
        c1, c2 = GeometryCache(), GeometryCache()
        assert c1._generation != c2._generation
        old = c1._generation
        c1.reset()
        assert c1._generation != old
        assert c1._generation != c2._generation

        space = IndexSpace.from_range(0, 10)
        uid1 = c1.uid_of(space)
        uid2 = c2.uid_of(space)   # must miss c1's memo and re-intern
        assert c2.uid_of(IndexSpace.from_range(0, 10)) == uid2
        assert uid1 == c1.uid_of(space)


class TestSharedMapsUnderThreads:
    def test_hammered_maps_stay_correct_and_read_only(self):
        """The thread backend shares one cache: eight threads asking for
        the same maps while the tables are invalidated under them must
        each get the raw body's answer, read-only."""
        import sys
        import threading

        a = IndexSpace.from_range(0, 400)
        subs = [IndexSpace.from_range(s, s + 40) for s in range(0, 360, 8)]
        want = [a._positions_raw(sub) for sub in subs]
        wrong: list = []
        stop = threading.Event()

        def worker(seed):
            order = np.random.default_rng(seed).permutation(len(subs))
            while not stop.is_set():
                for i in order:
                    got = a.positions_of(subs[i])
                    if got.flags.writeable or \
                            not np.array_equal(got, want[i]):
                        wrong.append(i)
                if seed == 0:
                    geometry_cache().invalidate()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        try:
            for t in threads:
                t.start()
            stop.wait(0.5)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
