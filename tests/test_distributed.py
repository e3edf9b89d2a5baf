"""Tests for ``ClusterSPFresh`` under a ``HashPlacement``.

The scatter-gather baseline: rows homed by id hash, every query answered
by every shard. What the facade does whatever its placement (replicas,
failover, splits under centroid placement, worker pools over both
placements) is in test_cluster.py.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex
from repro.datasets import GroundTruthTracker, exact_knn
from repro.distributed import ClusterSPFresh, HashPlacement, ShardGroup
from tests.conftest import DIM
from tests.helpers import assert_same_results


def build_sharded(vectors, config, num_shards=3):
    return ClusterSPFresh.build(
        vectors, config=config, placement=HashPlacement(num_shards)
    )


def shards(cluster):
    return [group.primary for group in cluster.groups]


def scalar_hash(vector_id: int, num_shards: int) -> int:
    """Scalar oracle ``HashPlacement.homes`` is pinned bit-identical to."""
    mixed = (int(vector_id) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    return (mixed >> 32) % num_shards


@pytest.fixture
def sharded(vectors, small_config):
    with build_sharded(vectors, small_config) as index:
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
    with build_sharded(vectors, config) as index:
        if "fresh" in request.param:
            rng = np.random.default_rng(99)
            for i in range(40):
                index.insert(50_000 + i, rng.normal(size=DIM).astype(np.float32))
            assert any(len(s.fresh_tier) > 0 for s in shards(index))
        yield index


class TestRouter:
    def test_deterministic(self):
        placement = HashPlacement(4)
        ids = np.array([123, 123])
        assert placement.homes(ids)[0] == placement.homes(ids)[1]

    def test_range(self):
        assert set(HashPlacement(5).homes(np.arange(1000))) == {0, 1, 2, 3, 4}

    def test_balance(self):
        counts = np.bincount(HashPlacement(4).homes(np.arange(4000)), minlength=4)
        assert counts.max() / counts.min() < 1.3

    def test_partition_covers_all(self, vectors, small_config):
        # build() partitions by homes(): every row lands in its hash shard.
        ids = np.arange(1000, 1000 + len(vectors), dtype=np.int64)
        with ClusterSPFresh.build(
            vectors, ids=ids, config=small_config, placement=HashPlacement(3)
        ) as cluster:
            homes = cluster.placement.homes(ids)
            assert cluster.directory == dict(zip(ids.tolist(), homes.tolist()))
            assert cluster.shard_sizes() == np.bincount(homes).tolist()

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            HashPlacement(0)

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
        expected = [scalar_hash(i, num_shards) for i in ids]
        homes = HashPlacement(num_shards).homes(np.asarray(ids, dtype=np.int64))
        assert homes.dtype == np.int64
        np.testing.assert_array_equal(homes, expected)

    def test_batch_hash_accepts_non_contiguous_input(self):
        ids = np.arange(0, 200, dtype=np.int64)[::2]  # strided view
        expected = [scalar_hash(i, 5) for i in ids]
        np.testing.assert_array_equal(HashPlacement(5).homes(ids), expected)

    def test_every_query_probes_every_shard(self, sharded, vectors):
        # A hash says nothing about the vector: nprobe cannot narrow it.
        placement = sharded.placement
        for probed in placement.shards_for_queries(vectors[:4], 1):
            assert probed.tolist() == [0, 1, 2]
        sharded.query(QueryRequest(vectors=vectors[:4], k=3))
        assert sharded.shards_probed_fraction() == 1.0
        assert sharded.stats.broadcasts == 4

    def test_one_region_per_shard_never_splits(self, vectors, small_config):
        config = small_config.with_overrides(cluster_split_threshold=10)
        with build_sharded(vectors, config) as cluster:
            assert cluster.placement.group_sizes().tolist() == [1, 1, 1]
            assert max(cluster.shard_sizes()) > 10
            assert cluster.maybe_split() == 0
            assert cluster.num_shards == 3
            assert cluster.check_invariants().ok


class TestBuild:
    def test_all_vectors_distributed(self, sharded, vectors):
        assert sharded.live_vector_count == len(vectors)
        assert sharded.num_shards == 3
        assert sum(sharded.shard_sizes()) == len(vectors)
        assert len(sharded.directory) == len(vectors)
        assert sharded.placement.memory_bytes() == 0
        report = sharded.check_invariants()
        assert report.ok, report.failures

    def test_shards_roughly_balanced(self, sharded):
        sizes = sharded.shard_sizes()
        assert max(sizes) / min(sizes) <= 1.5

    def test_mismatched_router_rejected(self, vectors, small_config):
        single = SPFreshIndex.build(vectors, config=small_config)
        with pytest.raises(ValueError):
            ClusterSPFresh(
                [ShardGroup(0, [single])], HashPlacement(2), {}, small_config
            )

    def test_too_many_shards_for_tiny_data(self, small_config, rng):
        few = rng.normal(size=(3, DIM)).astype(np.float32)
        with pytest.raises(ValueError, match="empty"):
            build_sharded(few, small_config, num_shards=64)


class TestSearch:
    def test_matches_exact_with_full_probe(self, sharded, vectors):
        queries = vectors[:10] + 0.01
        gt = exact_knn(vectors, np.arange(len(vectors)), queries, 5)
        for i, q in enumerate(queries):
            result = sharded.query(QueryRequest.single(q, k=5, nprobe=10**6)).result
            assert set(map(int, result.ids)) == set(map(int, gt[i]))

    def test_latency_is_max_plus_merge(self, sharded, vectors):
        request = QueryRequest.single(vectors[0], k=5, nprobe=4)
        result = sharded.query(request).result
        per_shard = [s.query(request).result for s in shards(sharded)]
        assert result.latency_us == pytest.approx(
            max(r.latency_us for r in per_shard)
            + ClusterSPFresh.ROUTE_COST_US
            + ClusterSPFresh.MERGE_COST_US
        )

    def test_parallel_mode_same_results(self, sharded, vectors):
        request = QueryRequest.single(vectors[0], k=8, nprobe=8)
        serial = sharded.query(request).result
        with sharded.worker_pool(fork=False) as pool:
            parallel = sharded.query(request, pool=pool).result
        assert_same_results([serial], [parallel])

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
        assert changed[0] == scalar_hash(99_999, 3) == sharded.directory[99_999]

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
            s.memory_bytes() for s in shards(sharded)
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
        with facade.worker_pool(fork=False) as pool:
            parallel = facade.query(request, pool=pool).results
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s.ids, p.ids)
            np.testing.assert_array_equal(s.distances, p.distances)

    def test_merge_sums_every_shard_counter(self, request, facade, vectors):
        # The hash-sharded merge used to rebuild its SearchResult without
        # fresh_entries_scanned and reranked_entries: both read 0
        # whatever the shards did.
        variant = request.node.callspec.params["facade"]
        query = QueryRequest(vectors=vectors[:6] + 0.01, k=5, nprobe=8)
        merged = facade.query(query).results
        per_shard = [s.query(query).results for s in shards(facade)]
        counters = (
            "postings_probed",
            "entries_scanned",
            "fresh_entries_scanned",
            "reranked_entries",
        )
        for qi, result in enumerate(merged):
            for name in counters:
                assert getattr(result, name) == sum(
                    getattr(results[qi], name) for results in per_shard
                ), name
            assert (result.fresh_entries_scanned > 0) == ("fresh" in variant)
            assert (result.reranked_entries > 0) == ("pq" in variant)

    def test_empty_batch(self, sharded):
        empty = QueryRequest(vectors=np.empty((0, DIM), dtype=np.float32), k=5)
        assert sharded.query(empty).results == ()

    def test_latency_model_matches_single_facade(self, facade, vectors):
        queries = vectors[:4] + 0.01
        for result in facade.query(QueryRequest(vectors=queries, k=5, nprobe=8)).results:
            assert result.latency_us > ClusterSPFresh.MERGE_COST_US
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
        with build_sharded(vectors, config) as sharded_index:
            for i, vec in enumerate(extra):
                single.insert(60_000 + i, vec)
                sharded_index.insert(60_000 + i, vec)
            assert len(single.fresh_tier) == len(extra)
            assert any(len(s.fresh_tier) > 0 for s in shards(sharded_index))
            queries = np.concatenate([vectors[:8] + 0.01, extra[:8] + 0.01])
            for q in queries:
                want = single.query(QueryRequest.single(q, k=5, nprobe=10**6)).result
                got = sharded_index.query(QueryRequest.single(q, k=5, nprobe=10**6)).result
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_array_equal(got.distances, want.distances)
                # The tier is scanned whole by whoever holds it, so the
                # merged counter is the unsharded one.
                assert got.fresh_entries_scanned == want.fresh_entries_scanned > 0


class TestLifecycle:
    def test_context_manager_shuts_down_pool(self, sharded, vectors):
        request = QueryRequest.single(vectors[0], k=5, nprobe=4)
        with sharded.worker_pool(fork=False) as pool:
            sharded.query(request, pool=pool)
        with pytest.raises(RuntimeError, match="closed"):
            sharded.query(request, pool=pool)

    def test_close_is_idempotent(self, vectors, small_config):
        index = build_sharded(vectors, small_config)
        index.query(QueryRequest.single(vectors[0], k=5))
        index.close()
        index.close()

    def test_no_pool_until_parallel_use(self, sharded, vectors):
        # The facade owns no pool: a serial query starts no thread, and a
        # pool's threads live exactly as long as the pool is open.
        before = threading.active_count()
        sharded.query(QueryRequest.single(vectors[0], k=5))
        assert threading.active_count() == before
        with sharded.worker_pool(fork=False):
            assert threading.active_count() == before + sharded.num_shards
        assert threading.active_count() == before
