"""Tests for the FreshDiskANN baseline index."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.baselines.diskann import DiskANNConfig, FreshDiskANNIndex
from repro.datasets import GroundTruthTracker, exact_knn, make_sift_like

DIM = 16


def _search(index, query, k):
    return index.query(QueryRequest.single(query, k=k)).result


@pytest.fixture(scope="module")
def dataset():
    return make_sift_like(800, 300, dim=DIM, n_clusters=8, seed=4)


@pytest.fixture
def index(dataset):
    config = DiskANNConfig(dim=DIM, merge_threshold=100, ssd_blocks=1 << 12)
    return FreshDiskANNIndex.build(dataset.base, config=config)


class TestConfig:
    def test_node_must_fit_block(self):
        with pytest.raises(ValueError):
            DiskANNConfig(dim=2000, block_size=4096).validate()

    def test_node_bytes_formula(self):
        config = DiskANNConfig(dim=DIM)
        assert config.node_bytes() == 4 + 8 * config.node_capacity() + 4 * DIM


class TestSearch:
    def test_recall_reasonable(self, index, dataset):
        queries = dataset.base[:30] + 0.01
        gt = exact_knn(dataset.base, np.arange(800), queries, 10)
        recalls = []
        for i, q in enumerate(queries):
            r = _search(index, q, 10)
            recalls.append(len(set(map(int, r.ids)) & set(map(int, gt[i]))) / 10)
        assert np.mean(recalls) > 0.6

    def test_latency_accounts_for_hops(self, index, dataset):
        r = _search(index, dataset.base[0], 10)
        hops = r.postings_probed  # one beam read per hop
        assert hops > 0
        assert r.latency_us >= hops * index.config.read_latency_us

    def test_results_sorted(self, index, dataset):
        r = _search(index, dataset.base[0], 10)
        assert list(r.distances) == sorted(r.distances)

    def test_empty_index_search(self):
        index = FreshDiskANNIndex(DiskANNConfig(dim=DIM, ssd_blocks=64))
        r = _search(index, np.zeros(DIM, dtype=np.float32), 5)
        assert len(r.ids) == 0


class TestInsertDelete:
    def test_first_insert_into_empty(self):
        index = FreshDiskANNIndex(DiskANNConfig(dim=DIM, ssd_blocks=64))
        vec = np.ones(DIM, dtype=np.float32)
        index.insert(1, vec)
        assert _search(index, vec, 1).ids[0] == 1

    def test_delete_hides_vector(self, index, dataset):
        index.delete(5)
        r = _search(index, dataset.base[5], 10)
        assert 5 not in set(map(int, r.ids))

    def test_delete_unknown_noop(self, index):
        assert index.delete(999_999) >= 0

    def test_live_count(self, index):
        before = index.live_vector_count
        index.delete(0)
        assert index.live_vector_count == before - 1


class TestStreamingMerge:
    def test_merge_triggered_at_threshold(self, index):
        for vid in range(index.config.merge_threshold):
            index.delete(vid)
        assert index.merges_completed == 1
        assert index.last_merge_io_us > 0

    def test_merge_reclaims_slots(self, index):
        used_before = index.ssd.used_blocks()
        for vid in range(index.config.merge_threshold):
            index.delete(vid)
        assert index.ssd.used_blocks() < used_before

    def test_recall_survives_merge(self, index, dataset):
        tracker = GroundTruthTracker(np.arange(800), dataset.base)
        for vid in range(100):
            index.delete(vid)
            tracker.delete(vid)
        assert index.merges_completed >= 1
        # Burn off the interference window so we measure steady state.
        for _ in range(index.config.merge_interference_queries):
            _search(index, dataset.base[200], 1)
        queries = dataset.base[200:220] + 0.01
        gt = tracker.ground_truth(queries, 10)
        recalls = []
        for i, q in enumerate(queries):
            r = _search(index, q, 10)
            recalls.append(len(set(map(int, r.ids)) & set(map(int, gt[i]))) / 10)
        assert np.mean(recalls) > 0.55

    def test_interference_inflates_latency(self, index, dataset):
        baseline = _search(index, dataset.base[200], 5).latency_us
        for vid in range(index.config.merge_threshold):
            index.delete(vid)
        spiked = _search(index, dataset.base[200], 5).latency_us
        assert spiked > baseline + 0.3 * index.config.merge_blocking_us

    def test_merge_without_tombstones_is_noop(self, index):
        assert index.streaming_merge() == 0.0

    def test_medoid_survives_deletion(self, index, dataset):
        medoid = index._medoid
        index._tombstones.add(medoid)
        index.streaming_merge()
        assert index._medoid != medoid
        assert _search(index, dataset.base[300], 3).ids.size > 0


class TestMemoryModel:
    def test_merge_spike(self, index):
        quiet = index.memory_bytes()
        for vid in range(index.config.merge_threshold):
            index.delete(vid)
        assert index.drain() == 1
        assert index.memory_bytes() > quiet  # the merge window's working set
        assert index.drain() == 0
        assert index.memory_bytes() < quiet  # merged: fewer nodes, no spike
