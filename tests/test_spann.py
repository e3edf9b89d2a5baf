"""Tests for the SPANN substrate: build plan, posting helpers, searcher."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex
from repro.core.version_map import VersionMap
from repro.spann.build import build_plan
from repro.spann.postings import dedup_top_k, live_view
from repro.storage.layout import PostingData
from tests.conftest import DIM


@pytest.fixture
def plan(vectors, small_config, rng):
    return build_plan(vectors, small_config, rng)


class TestBuildPlan:
    def test_posting_sizes_bounded(self, plan, small_config):
        sizes = plan.posting_sizes()
        # Leaves start at the build target; boundary replication can add up
        # to a replica_count multiple concentrated in dense regions (the
        # post-build normalization pass splits those before serving).
        bound = small_config.build_target_posting_size * (
            small_config.replica_count + 1
        )
        assert sizes.max() <= bound
        assert sizes.min() >= 1

    def test_primary_covers_all_vectors(self, plan, vectors):
        assert len(plan.primary) == len(vectors)
        union = set()
        for rows in plan.members:
            union.update(int(r) for r in rows)
        assert union == set(range(len(vectors)))

    def test_replica_counts(self, plan, small_config):
        counts = plan.replica_counts()
        assert counts.min() >= 1
        assert counts.max() <= small_config.replica_count

    def test_centroid_count_matches_members(self, plan):
        assert len(plan.centroids) == len(plan.members) == plan.num_postings

    def test_empty_input_raises(self, small_config, rng):
        with pytest.raises(ValueError):
            build_plan(np.empty((0, DIM), dtype=np.float32), small_config, rng)


class TestLiveView:
    def test_none_version_map_passthrough(self, rng):
        data = PostingData.from_rows([1, 2], [0, 0], rng.normal(size=(2, DIM)))
        assert live_view(data, None) is data

    def test_filters_deleted_and_stale(self, rng):
        vm = VersionMap()
        for vid in (1, 2, 3):
            vm.register(vid)
        vm.delete(2)
        vm.cas_bump(3, 0)
        data = PostingData.from_rows(
            [1, 2, 3], [0, 0, 0], rng.normal(size=(3, DIM))
        )
        live = live_view(data, vm)
        assert list(live.ids) == [1]

    def test_all_live_returns_same_object(self, rng):
        vm = VersionMap()
        vm.register(1)
        data = PostingData.from_rows([1], [0], rng.normal(size=(1, DIM)))
        assert live_view(data, vm) is data


class TestDedupTopK:
    def test_removes_duplicate_ids(self):
        ids = np.array([1, 2, 1, 3], dtype=np.int64)
        dists = np.array([0.5, 0.2, 0.5, 0.9], dtype=np.float32)
        top_ids, top_dists = dedup_top_k(ids, dists, 10)
        assert list(top_ids) == [2, 1, 3]
        assert list(top_dists) == [np.float32(0.2), np.float32(0.5), np.float32(0.9)]

    def test_keeps_best_instance(self):
        ids = np.array([7, 7], dtype=np.int64)
        dists = np.array([3.0, 1.0], dtype=np.float32)
        top_ids, top_dists = dedup_top_k(ids, dists, 1)
        assert top_ids[0] == 7 and top_dists[0] == 1.0

    def test_k_truncation(self):
        ids = np.arange(10, dtype=np.int64)
        dists = np.arange(10, dtype=np.float32)[::-1].copy()
        top_ids, _ = dedup_top_k(ids, dists, 3)
        assert list(top_ids) == [9, 8, 7]

    def test_empty_and_zero_k(self):
        empty_ids, empty_d = dedup_top_k(np.empty(0, np.int64), np.empty(0, np.float32), 5)
        assert len(empty_ids) == 0
        ids, d = dedup_top_k(np.array([1]), np.array([1.0], dtype=np.float32), 0)
        assert len(ids) == 0


class TestSearcher:
    def test_exact_for_full_probe(self, built_index, vectors):
        """Probing every posting must return the true nearest neighbors."""
        query = vectors[3]
        result = built_index.query(
            QueryRequest.single(query, k=5, nprobe=built_index.num_postings)
        ).result
        assert result.ids[0] == 3
        assert result.distances[0] == pytest.approx(0.0, abs=1e-3)

    def test_latency_increases_with_nprobe(self, built_index, vectors):
        small = built_index.query(QueryRequest.single(vectors[0], k=5, nprobe=1)).result
        large = built_index.query(QueryRequest.single(vectors[0], k=5, nprobe=16)).result
        assert large.io_latency_us >= small.io_latency_us
        assert large.postings_probed >= small.postings_probed

    def test_entries_scanned_counted(self, built_index, vectors):
        result = built_index.query(QueryRequest.single(vectors[0], k=5, nprobe=4)).result
        assert result.entries_scanned > 0

    def test_latency_budget_truncates(self, vectors, small_config):
        config = small_config.with_overrides(
            search_latency_budget_us=100.0  # tighter than one probe wave
        )
        index = SPFreshIndex.build(vectors, config=config)
        result = index.query(QueryRequest.single(vectors[0], k=5, nprobe=32)).result
        assert result.truncated
        assert result.latency_us <= 100.0
        assert result.postings_probed >= 1

    def test_no_budget_never_truncates(self, vectors, small_config):
        config = small_config.with_overrides(search_latency_budget_us=None)
        index = SPFreshIndex.build(vectors, config=config)
        result = index.query(QueryRequest.single(vectors[0], k=5, nprobe=32)).result
        assert not result.truncated

    def test_deleted_vectors_never_returned(self, built_index, vectors):
        built_index.delete(3)
        result = built_index.query(
            QueryRequest.single(vectors[3], k=10, nprobe=built_index.num_postings)
        ).result
        assert 3 not in set(int(i) for i in result.ids)

    def test_search_result_len(self, built_index, vectors):
        result = built_index.query(QueryRequest.single(vectors[0], k=7)).result
        assert len(result) == len(result.ids) == 7
