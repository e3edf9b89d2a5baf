"""Tests for query-aware dynamic pruning and per-job I/O accounting."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex
from tests.conftest import DIM


class TestQueryAwarePruning:
    def test_pruning_reduces_postings_probed(self, vectors, small_config):
        plain = SPFreshIndex.build(vectors, config=small_config)
        pruned = SPFreshIndex.build(
            vectors, config=small_config.with_overrides(search_prune_epsilon=0.3)
        )
        # A query dead-center in a cluster has one dominant posting; the
        # pruned searcher should skip the distant candidates.
        query = vectors[0]
        full = plain.query(QueryRequest.single(query, k=5, nprobe=16)).result
        cut = pruned.query(QueryRequest.single(query, k=5, nprobe=16)).result
        assert cut.postings_probed <= full.postings_probed
        assert cut.postings_probed >= 1

    def test_pruning_preserves_top_hit(self, vectors, small_config):
        pruned = SPFreshIndex.build(
            vectors, config=small_config.with_overrides(search_prune_epsilon=0.5)
        )
        for i in (0, 7, 42):
            result = pruned.query(QueryRequest.single(vectors[i], k=1, nprobe=8)).result
            assert result.ids[0] == i

    def test_disabled_by_default(self, built_index):
        assert built_index.searcher.prune_epsilon is None

    def test_large_epsilon_prunes_nothing(self, vectors, small_config):
        loose = SPFreshIndex.build(
            vectors, config=small_config.with_overrides(search_prune_epsilon=1e6)
        )
        plain = SPFreshIndex.build(vectors, config=small_config)
        q = vectors[3]
        assert (
            loose.query(QueryRequest.single(q, k=5, nprobe=8)).result.postings_probed
            == plain.query(QueryRequest.single(q, k=5, nprobe=8)).result.postings_probed
        )

    def test_recall_cost_is_small(self, vectors, small_config, rng):
        from repro.datasets import exact_knn
        from repro.metrics import recall_at_k

        queries = vectors[:30] + 0.01
        gt = exact_knn(vectors, np.arange(len(vectors)), queries, 5)
        plain = SPFreshIndex.build(vectors, config=small_config)
        pruned = SPFreshIndex.build(
            vectors, config=small_config.with_overrides(search_prune_epsilon=0.6)
        )
        requests = [QueryRequest.single(q, k=5, nprobe=8) for q in queries]
        r_plain = recall_at_k([plain.query(r).ids for r in requests], gt, 5)
        r_pruned = recall_at_k([pruned.query(r).ids for r in requests], gt, 5)
        assert r_pruned >= r_plain - 0.1


class TestIoByJob:
    def test_split_io_attributed(self, built_index, rng):
        centroid = built_index.centroid_index.get(
            built_index.controller.posting_ids()[0]
        )
        for i in range(built_index.config.max_posting_size + 10):
            built_index.insert(
                70_500 + i,
                (centroid + rng.normal(scale=0.05, size=DIM)).astype(np.float32),
            )
        built_index.drain()
        io = built_index.rebuilder.io_by_job
        assert io["split"] > 0
        total = sum(io.values())
        assert total == pytest.approx(built_index.rebuilder.background_io_us, rel=1e-6)

    def test_reassign_io_attributed(self, built_index, rng):
        centroid = built_index.centroid_index.get(
            built_index.controller.posting_ids()[0]
        )
        for i in range(built_index.config.max_posting_size * 2):
            built_index.insert(
                71_500 + i,
                (centroid + rng.normal(scale=0.2, size=DIM)).astype(np.float32),
            )
        built_index.drain()
        if built_index.stats.reassign_executed > 0:
            assert built_index.rebuilder.io_by_job["reassign"] > 0
