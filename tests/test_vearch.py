"""Tests for the Vearch-style in-memory baseline (§2.3)."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.baselines.vearch import VearchLikeIndex
from repro.datasets import exact_knn, make_spacev_like

DIM = 16


def _search(index, query, k, nprobe=None):
    return index.query(QueryRequest.single(query, k=k, nprobe=nprobe)).result


@pytest.fixture(scope="module")
def dataset():
    return make_spacev_like(1500, 500, dim=DIM, seed=8, drift=0.9)


@pytest.fixture
def index(dataset):
    return VearchLikeIndex.build(dataset.base, num_partitions=32, seed=1)


class TestBasics:
    def test_build_distributes_all(self, index, dataset):
        assert index.live_vector_count == len(dataset.base)
        assert index.partition_sizes().sum() == len(dataset.base)

    def test_search_finds_self(self, index, dataset):
        result = _search(index, dataset.base[5], 1, nprobe=32)
        assert result.ids[0] == 5

    def test_recall_reasonable(self, index, dataset):
        queries = dataset.base[:30] + 0.01
        gt = exact_knn(dataset.base, np.arange(len(dataset.base)), queries, 10)
        hits = 0
        for i, q in enumerate(queries):
            r = _search(index, q, 10, nprobe=8)
            hits += len(set(map(int, r.ids)) & set(map(int, gt[i])))
        assert hits / 300 > 0.85

    def test_delete_hides(self, index, dataset):
        index.delete(3)
        result = _search(index, dataset.base[3], 10, nprobe=32)
        assert 3 not in set(map(int, result.ids))
        assert index.live_vector_count == len(dataset.base) - 1

    def test_delete_unknown_noop(self, index):
        assert index.delete(10**9) >= 0

    def test_memory_counts_tombstoned_storage(self, index):
        before = index.memory_bytes()
        index.delete(0)  # tombstone does not reclaim storage
        assert index.memory_bytes() == before

    def test_empty_index_search(self):
        empty = VearchLikeIndex(DIM)
        assert len(_search(empty, np.zeros(DIM, dtype=np.float32), 5).ids) == 0


class TestRebuild:
    def test_rebuild_reclaims_tombstones(self, index, dataset):
        for vid in range(100):
            index.delete(vid)
        stored_before = index.partition_sizes().sum()
        index.rebuild()
        assert index.rebuilds_completed == 1
        assert index.partition_sizes().sum() == stored_before - 100

    def test_shifted_inserts_skew_partitions_until_rebuild(self, index, dataset):
        """The §2.3 story: frozen centroids let shifted inserts pile into
        few partitions; a global rebuild re-balances them."""
        for i, vec in enumerate(dataset.pool):
            index.insert(10_000 + i, vec)
        skew_before = index.partition_sizes().max() / max(
            index.partition_sizes().mean(), 1
        )
        index.rebuild()
        skew_after = index.partition_sizes().max() / max(
            index.partition_sizes().mean(), 1
        )
        assert skew_after <= skew_before

    def test_rebuild_preserves_search(self, index, dataset):
        index.insert(50_000, dataset.pool[0])
        index.rebuild()
        result = _search(index, dataset.pool[0], 1, nprobe=32)
        assert result.ids[0] == 50_000

    def test_rebuild_empty(self):
        empty = VearchLikeIndex(DIM)
        assert empty.rebuild() == 0.0
