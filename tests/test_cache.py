"""Tests for the LRU posting cache."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.storage.cache import CachedBlockController
from tests.conftest import make_posting


@pytest.fixture
def cached(controller, rng):
    for pid in range(8):
        controller.put(pid, make_posting(rng, 5 + pid, id_start=pid * 100))
    return CachedBlockController(controller, capacity=4)


class TestReadPath:
    def test_miss_then_hit(self, cached):
        data1, lat1 = cached.get(0)
        data2, lat2 = cached.get(0)
        assert cached.hits == 1 and cached.misses == 1
        assert lat2 == cached.hit_latency_us
        assert lat2 < lat1
        np.testing.assert_array_equal(data1.ids, data2.ids)

    def test_parallel_get_mixed(self, cached):
        cached.get(1)
        out, latency = cached.parallel_get([1, 2, 3])
        assert set(out.keys()) == {1, 2, 3}
        assert cached.hits == 1  # pid 1 hit inside parallel_get
        assert latency > cached.hit_latency_us  # device fetch for 2, 3

    def test_parallel_get_overlaps_hits_with_device(self, cached):
        # Hits are served from DRAM while the device fetch for the misses
        # is in flight: a mixed batch costs max(hit, device), not the sum.
        cached.get(1)
        _, device_latency = cached.inner.parallel_get([2, 3])
        _, latency = cached.parallel_get([1, 2, 3])
        assert latency == max(cached.hit_latency_us, device_latency)
        assert latency == device_latency  # device path dominates DRAM hits

    def test_all_cached_parallel_get(self, cached):
        cached.parallel_get([1, 2])
        _, latency = cached.parallel_get([1, 2])
        assert latency == cached.hit_latency_us

    def test_hit_rate(self, cached):
        cached.get(0)
        cached.get(0)
        cached.get(0)
        assert cached.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction(self, cached):
        for pid in range(5):  # capacity 4: pid 0 evicted
            cached.get(pid)
        assert cached.cached_postings == 4
        cached.get(0)
        assert cached.misses == 6  # 5 initial + re-miss of evicted 0


class TestWriteInvalidation:
    def test_append_invalidates(self, cached, rng):
        cached.get(0)
        cached.append(0, make_posting(rng, 2, id_start=9000))
        data, _ = cached.get(0)
        assert 9000 in set(int(i) for i in data.ids)

    def test_put_invalidates(self, cached, rng):
        cached.get(1)
        fresh = make_posting(rng, 3, id_start=7000)
        cached.put(1, fresh)
        data, _ = cached.get(1)
        np.testing.assert_array_equal(data.ids, fresh.ids)

    def test_delete_invalidates(self, cached):
        cached.get(2)
        cached.delete(2)
        assert not cached.exists(2)
        out, _ = cached.parallel_get([2])
        assert out == {}


class TestArenaAliasing:
    """The cache must own its bytes, not alias the decode arena.

    ``BlockController.parallel_get`` decodes the whole batch into one
    shared arena and hands out zero-copy slices. Storing those slices in
    the cache means a caller mutating its (supposedly private) result —
    or a later decode reusing the arena — silently poisons every future
    hit. Regression tests for the copy-on-insert fix.
    """

    def test_caller_mutation_does_not_poison_cache(self, cached):
        # Multi-posting parallel_get takes the arena path.
        out, _ = cached.parallel_get([4, 5, 6])
        pristine_ids = out[4].ids.copy()
        pristine_vecs = out[4].vectors.copy()
        # Caller scribbles over everything it was handed.
        for data in out.values():
            data.ids[:] = -1
            data.versions[:] = 255
            data.vectors[:] = np.nan
        hit, _ = cached.parallel_get([4])
        np.testing.assert_array_equal(hit[4].ids, pristine_ids)
        np.testing.assert_array_equal(hit[4].vectors, pristine_vecs)

    def test_cached_entries_own_their_memory(self, cached):
        cached.parallel_get([0, 1, 2])
        for data in cached._cache.values():
            assert data.owns_memory()

    def test_single_get_not_needlessly_copied(self, cached):
        # The single-GET decode already returns owned columns; the
        # copy-on-insert must be a no-op there (owned() returns self).
        data, _ = cached.get(3)
        assert data.owns_memory()
        assert cached._cache[3] is data

    def test_memory_accounting_survives_source_mutation(self, cached):
        out, _ = cached.parallel_get([0, 1])
        before = cached.memory_bytes()
        out[0].vectors[:] = 0.0
        assert cached.memory_bytes() == before

    def test_clear(self, cached):
        cached.get(0)
        cached.clear()
        assert cached.cached_postings == 0


class TestDelegation:
    def test_metadata_passthrough(self, cached):
        assert cached.num_postings == 8
        assert cached.length(3) == 8
        assert cached.exists(7)

    def test_memory_model(self, cached):
        assert cached.memory_bytes() == 0
        cached.get(0)
        assert cached.memory_bytes() > 0

    def test_invalid_capacity(self, controller):
        with pytest.raises(ValueError):
            CachedBlockController(controller, capacity=0)


class TestWithSearcher:
    def test_cached_searches_reduce_device_reads(self, built_index, vectors):
        cached = CachedBlockController(built_index.controller, capacity=512)
        built_index.searcher.controller = cached
        io_before = built_index.ssd.stats.snapshot()
        for _ in range(5):
            built_index.query(QueryRequest.single(vectors[0], k=5, nprobe=8))
        window = built_index.ssd.stats.snapshot().delta(io_before)
        # Only the first query's postings hit the device.
        assert cached.hit_rate > 0.5
        assert window.block_reads <= window.block_reads  # sanity
        result = built_index.query(QueryRequest.single(vectors[0], k=5, nprobe=8)).result
        assert result.io_latency_us == cached.hit_latency_us
