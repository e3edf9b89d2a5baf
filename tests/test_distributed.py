"""Tests for the sharded (distributed) SPFresh extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex
from repro.datasets import GroundTruthTracker, exact_knn
from repro.distributed import ShardRouter, ShardedSPFresh
from tests.conftest import DIM


@pytest.fixture
def sharded(vectors, small_config):
    with ShardedSPFresh.build(vectors, num_shards=3, config=small_config) as index:
        yield index


@pytest.fixture(params=["disk", "fresh", "pq", "fresh-pq"])
def facade(request, vectors, small_config):
    """Sharded facade across the write-path x scan-path matrix.

    ``fresh`` variants enable the LSM-style memory tier on every shard
    (threshold high enough that nothing auto-flushes) and buffer a batch
    of extra inserts, so the scatter-gather paths are exercised with
    tier-resident vectors on the shards. ``pq`` variants store postings
    quantized, so the merge paths run over reranked compressed scans.
    """
    overrides = {}
    if "fresh" in request.param:
        overrides.update(
            enable_fresh_tier=True,
            fresh_flush_threshold=10_000,
            search_latency_budget_us=None,
        )
    if "pq" in request.param:
        overrides.update(
            quant_enabled=True,
            quant_kind="pq",
            quant_subspaces=8,
            quant_codebook_size=16,
        )
    config = small_config.with_overrides(**overrides) if overrides else small_config
    with ShardedSPFresh.build(vectors, num_shards=3, config=config) as index:
        if "fresh" in request.param:
            rng = np.random.default_rng(99)
            for i in range(40):
                index.insert(50_000 + i, rng.normal(size=DIM).astype(np.float32))
            assert any(len(s.fresh_tier) > 0 for s in index.shards)
        yield index


class TestRouter:
    def test_deterministic(self):
        router = ShardRouter(4)
        assert router.shard_of(123) == router.shard_of(123)

    def test_range(self):
        router = ShardRouter(5)
        shards = {router.shard_of(i) for i in range(1000)}
        assert shards == {0, 1, 2, 3, 4}

    def test_balance(self):
        router = ShardRouter(4)
        counts = np.bincount(
            [router.shard_of(i) for i in range(4000)], minlength=4
        )
        assert counts.max() / counts.min() < 1.3

    def test_partition_covers_all(self):
        router = ShardRouter(3)
        ids = np.arange(100, dtype=np.int64)
        parts = router.partition(ids)
        assert sorted(np.concatenate(parts)) == list(range(100))

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    @given(
        ids=st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            min_size=1,
            max_size=64,
        ),
        num_shards=st.integers(min_value=1, max_value=17),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_hash_bit_identical_to_scalar(self, ids, num_shards):
        # The vectorized uint64 path must agree with the scalar oracle on
        # the FULL int64 range, including negatives (two's-complement
        # reinterpretation) and values whose product wraps mod 2**64.
        router = ShardRouter(num_shards)
        id_arr = np.asarray(ids, dtype=np.int64)
        expected = np.asarray(
            [router.shard_of(int(i)) for i in ids], dtype=np.int64
        )
        np.testing.assert_array_equal(router.shard_of_batch(id_arr), expected)
        parts = router.partition(id_arr)
        for shard, rows in enumerate(parts):
            assert all(expected[r] == shard for r in rows)
        assert sum(len(p) for p in parts) == len(ids)

    def test_batch_hash_accepts_non_contiguous_input(self):
        router = ShardRouter(5)
        ids = np.arange(0, 200, dtype=np.int64)[::2]  # strided view
        expected = [router.shard_of(int(i)) for i in ids]
        np.testing.assert_array_equal(router.shard_of_batch(ids), expected)


class TestBuild:
    def test_all_vectors_distributed(self, sharded, vectors):
        assert sharded.live_vector_count == len(vectors)
        assert sharded.num_shards == 3
        assert sum(sharded.shard_sizes()) == len(vectors)

    def test_shards_roughly_balanced(self, sharded):
        sizes = sharded.shard_sizes()
        assert max(sizes) / max(min(sizes), 1) < 2.0

    def test_mismatched_router_rejected(self, vectors, small_config):
        single = SPFreshIndex.build(vectors, config=small_config)
        with pytest.raises(ValueError):
            ShardedSPFresh([single], ShardRouter(2))

    def test_too_many_shards_for_tiny_data(self, small_config, rng):
        few = rng.normal(size=(3, DIM)).astype(np.float32)
        with pytest.raises(ValueError):
            ShardedSPFresh.build(few, num_shards=64, config=small_config)


class TestSearch:
    def test_matches_exact_with_full_probe(self, sharded, vectors):
        queries = vectors[:10] + 0.01
        gt = exact_knn(vectors, np.arange(len(vectors)), queries, 5)
        for i, q in enumerate(queries):
            result = sharded.query(QueryRequest.single(q, k=5, nprobe=10**6)).result
            assert set(map(int, result.ids)) == set(map(int, gt[i]))

    def test_latency_is_max_plus_merge(self, sharded, vectors):
        result = sharded.query(QueryRequest.single(vectors[0], k=5, nprobe=4)).result
        request = QueryRequest.single(vectors[0], k=5, nprobe=4)
        per_shard = [s.query(request).result for s in sharded.shards]
        assert result.latency_us >= max(r.latency_us for r in per_shard)

    def test_parallel_mode_same_results(self, sharded, vectors):
        serial = sharded.query(QueryRequest.single(vectors[0], k=8, nprobe=8)).result
        parallel = sharded.query(
            QueryRequest.single(vectors[0], k=8, nprobe=8), parallel=True
        ).result
        assert set(map(int, serial.ids)) == set(map(int, parallel.ids))

    def test_dedup_across_shards(self, sharded, vectors):
        result = sharded.query(QueryRequest.single(vectors[0], k=20, nprobe=16)).result
        assert len(set(map(int, result.ids))) == len(result.ids)


class TestUpdates:
    def test_insert_routes_to_one_shard(self, sharded, rng):
        before = sharded.shard_sizes()
        sharded.insert(99_999, rng.normal(size=DIM).astype(np.float32))
        after = sharded.shard_sizes()
        assert sum(after) == sum(before) + 1
        changed = [i for i in range(3) if after[i] != before[i]]
        assert len(changed) == 1
        assert changed[0] == sharded.router.shard_of(99_999)

    def test_inserted_vector_found(self, sharded, rng):
        vec = rng.normal(size=DIM).astype(np.float32)
        sharded.insert(77_777, vec)
        result = sharded.query(QueryRequest.single(vec, k=1, nprobe=10**6)).result
        assert result.ids[0] == 77_777

    def test_delete_hides_everywhere(self, sharded, vectors):
        sharded.delete(5)
        result = sharded.query(QueryRequest.single(vectors[5], k=10, nprobe=10**6)).result
        assert 5 not in set(map(int, result.ids))

    def test_churn_preserves_recall(self, sharded, vectors, rng):
        tracker = GroundTruthTracker(np.arange(len(vectors)), vectors)
        for i in range(150):
            vid = 10_000 + i
            vec = rng.normal(size=DIM).astype(np.float32)
            sharded.insert(vid, vec)
            tracker.insert(vid, vec)
            sharded.delete(i)
            tracker.delete(i)
        sharded.drain()
        queries = vectors[200:220]
        gt = tracker.ground_truth(queries, 5)
        hits = total = 0
        for i, q in enumerate(queries):
            result = sharded.query(QueryRequest.single(q, k=5, nprobe=8)).result
            hits += len(set(map(int, result.ids)) & set(map(int, gt[i])))
            total += 5
        assert hits / total > 0.8

    def test_maintenance_fans_out(self, sharded):
        for vid in range(30):
            sharded.delete(vid)
        assert sharded.gc_pass() >= 1
        assert sharded.drain() >= 0

    def test_memory_is_sum_of_shards(self, sharded):
        assert sharded.memory_bytes() == sum(
            s.memory_bytes() for s in sharded.shards
        )


class TestBatchedFacade:
    def test_search_many_matches_search_per_query(self, facade, vectors):
        queries = vectors[:12] + 0.01
        batched = facade.query(QueryRequest(vectors=queries, k=5, nprobe=8)).results
        assert len(batched) == len(queries)
        for q, b in zip(queries, batched):
            single = facade.query(QueryRequest.single(q, k=5, nprobe=8)).result
            np.testing.assert_array_equal(b.ids, single.ids)
            np.testing.assert_array_equal(b.distances, single.distances)

    def test_search_many_parallel_matches_serial(self, facade, vectors):
        queries = vectors[:8] + 0.01
        request = QueryRequest(vectors=queries, k=5, nprobe=8)
        serial = facade.query(request).results
        parallel = facade.query(request, parallel=True).results
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s.ids, p.ids)
            np.testing.assert_array_equal(s.distances, p.distances)

    def test_empty_batch(self, sharded):
        empty = QueryRequest(vectors=np.empty((0, DIM), dtype=np.float32), k=5)
        assert sharded.query(empty).results == ()

    def test_latency_model_matches_single_facade(self, facade, vectors):
        queries = vectors[:4] + 0.01
        for result in facade.query(QueryRequest(vectors=queries, k=5, nprobe=8)).results:
            assert result.latency_us > ShardedSPFresh.MERGE_COST_US
            assert result.io_latency_us <= result.latency_us


class TestShardedFreshTierParity:
    """Sharding must not change what a fresh-tier search returns."""

    def test_sharded_matches_unsharded_with_resident_tiers(
        self, vectors, small_config
    ):
        config = small_config.with_overrides(
            enable_fresh_tier=True,
            fresh_flush_threshold=10_000,
            search_latency_budget_us=None,
        )
        rng = np.random.default_rng(5)
        extra = rng.normal(size=(40, DIM)).astype(np.float32)
        single = SPFreshIndex.build(vectors, config=config)
        with ShardedSPFresh.build(
            vectors, num_shards=3, config=config
        ) as sharded_index:
            for i, vec in enumerate(extra):
                single.insert(60_000 + i, vec)
                sharded_index.insert(60_000 + i, vec)
            assert len(single.fresh_tier) == len(extra)
            assert any(len(s.fresh_tier) > 0 for s in sharded_index.shards)
            queries = np.concatenate([vectors[:8] + 0.01, extra[:8] + 0.01])
            for q in queries:
                want = single.query(QueryRequest.single(q, k=5, nprobe=10**6)).result
                got = sharded_index.query(QueryRequest.single(q, k=5, nprobe=10**6)).result
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_array_equal(got.distances, want.distances)


class TestLifecycle:
    def test_context_manager_shuts_down_pool(self, vectors, small_config):
        with ShardedSPFresh.build(
            vectors, num_shards=3, config=small_config
        ) as index:
            index.query(QueryRequest.single(vectors[0], k=5, nprobe=4), parallel=True)
            assert index._pool is not None
            pool = index._pool
        # __exit__ drained and released the executor.
        assert index._pool is None
        assert pool._shutdown

    def test_close_is_idempotent(self, vectors, small_config):
        index = ShardedSPFresh.build(vectors, num_shards=3, config=small_config)
        index.query(QueryRequest.single(vectors[0], k=5), parallel=True)
        index.close()
        index.close()
        assert index._pool is None

    def test_no_pool_until_parallel_use(self, vectors, small_config):
        with ShardedSPFresh.build(
            vectors, num_shards=3, config=small_config
        ) as index:
            index.query(QueryRequest.single(vectors[0], k=5))
            assert index._pool is None
