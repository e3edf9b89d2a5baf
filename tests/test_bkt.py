"""BKTree-specific tests (shared behaviour is covered in test_centroids)."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.centroids import BKTreeCentroidIndex, BruteForceCentroidIndex

DIM = 8


def fill(index, rng, n):
    centroids = rng.normal(size=(n, DIM)).astype(np.float32)
    for pid, c in enumerate(centroids):
        index.add(pid, c)
    return centroids


class TestStructure:
    def test_splits_create_depth(self, rng):
        tree = BKTreeCentroidIndex(DIM, leaf_size=8, branch_factor=4)
        fill(tree, rng, 200)
        assert tree.depth() >= 2

    def test_leaf_size_respected_after_split(self, rng):
        tree = BKTreeCentroidIndex(DIM, leaf_size=8, branch_factor=4)
        fill(tree, rng, 100)
        for pid, leaf in tree._leaf_of.items():
            assert len(leaf.entries) <= 8

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BKTreeCentroidIndex(DIM, leaf_size=2, branch_factor=4)

    def test_identical_centroids_split_safely(self, rng):
        tree = BKTreeCentroidIndex(DIM, leaf_size=4, branch_factor=2)
        for pid in range(20):
            tree.add(pid, np.ones(DIM, dtype=np.float32))
        assert len(tree) == 20
        result = tree.search(np.ones(DIM, dtype=np.float32), 5)
        assert len(result) == 5


class TestQuality:
    def test_high_recall_vs_brute(self, rng):
        tree = BKTreeCentroidIndex(DIM, leaf_size=16)
        brute = BruteForceCentroidIndex(DIM)
        centroids = rng.normal(size=(400, DIM)).astype(np.float32)
        for pid, c in enumerate(centroids):
            tree.add(pid, c)
            brute.add(pid, c)
        hits = total = 0
        for query in rng.normal(size=(40, DIM)).astype(np.float32):
            t = set(int(p) for p in tree.search(query, 8).posting_ids)
            b = set(int(p) for p in brute.search(query, 8).posting_ids)
            hits += len(t & b)
            total += len(b)
        assert hits / total > 0.9

    def test_quality_survives_churn(self, rng):
        tree = BKTreeCentroidIndex(DIM, leaf_size=8)
        centroids = fill(tree, rng, 150)
        for pid in range(0, 150, 2):
            tree.remove(pid)
        for pid in range(150, 250):
            tree.add(pid, rng.normal(size=DIM).astype(np.float32))
        assert len(tree) == 175
        # Any surviving original centroid must be findable as its own NN.
        assert tree.search(centroids[1], 1).nearest == 1

    def test_empty_leaves_ignored_in_search(self, rng):
        tree = BKTreeCentroidIndex(DIM, leaf_size=4, branch_factor=2)
        fill(tree, rng, 30)
        for pid in range(25):
            tree.remove(pid)
        result = tree.search(np.zeros(DIM, dtype=np.float32), 5)
        assert len(result) == 5
        assert set(int(p) for p in result.posting_ids) <= set(range(25, 30))


class TestIntegrationWithIndex:
    def test_spfresh_runs_on_bkt(self, vectors, small_config, rng):
        from repro.core.index import SPFreshIndex

        config = small_config.with_overrides(centroid_index_kind="bkt")
        index = SPFreshIndex.build(vectors, config=config)
        result = index.query(QueryRequest.single(vectors[0], k=5, nprobe=8)).result
        assert len(result) == 5
        for i in range(60):
            index.insert(50_000 + i, rng.normal(size=16).astype(np.float32))
        index.drain()
        assert index.live_vector_count == len(vectors) + 60
