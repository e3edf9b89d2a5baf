"""Tests for the batched multi-query search path."""

import numpy as np

from repro.api import QueryRequest


class TestSearchBatch:
    def test_matches_single_query_results(self, built_index, vectors):
        queries = vectors[:10] + 0.01
        batch = built_index.query(QueryRequest(vectors=queries, k=5, nprobe=8)).results
        singles = [built_index.query(QueryRequest.single(q, k=5, nprobe=8)).result for q in queries]
        assert len(batch) == 10
        for b, s in zip(batch, singles):
            assert set(map(int, b.ids)) == set(map(int, s.ids))
            np.testing.assert_allclose(b.distances, s.distances, rtol=1e-5)

    def test_shared_io_cheaper_than_serial(self, built_index, vectors):
        queries = vectors[:12] + 0.01
        batch = built_index.query(QueryRequest(vectors=queries, k=5, nprobe=8)).results
        serial_io = sum(
            built_index.query(QueryRequest.single(q, k=5, nprobe=8)).io_latency_us
            for q in queries
        )
        # Every batch result carries the single shared submission latency.
        shared_io = batch[0].io_latency_us
        assert all(r.io_latency_us == shared_io for r in batch)
        assert shared_io < serial_io

    def test_respects_tombstones(self, built_index, vectors):
        built_index.delete(2)
        results = built_index.query(
            QueryRequest(vectors=vectors[:4], k=10, nprobe=built_index.num_postings)
        ).results
        assert 2 not in set(map(int, results[2].ids))

    def test_empty_batch(self, built_index):
        empty = QueryRequest(vectors=np.empty((0, 16), dtype=np.float32), k=5)
        assert built_index.query(empty).results == ()

    def test_single_query_batch(self, built_index, vectors):
        results = built_index.query(QueryRequest(vectors=vectors[:1], k=3)).results
        assert len(results) == 1
        assert len(results[0]) == 3

    def test_latency_components(self, built_index, vectors):
        results = built_index.query(QueryRequest(vectors=vectors[:5], k=5, nprobe=4)).results
        for r in results:
            assert r.latency_us >= r.io_latency_us
            assert r.entries_scanned > 0


class TestBatchSearchParity:
    """search_many must drive the same pruning and maintenance signals as
    search — batch-only workloads previously never triggered merges."""

    def test_prune_epsilon_respected(self, built_index, vectors):
        searcher = built_index.searcher
        searcher.latency_budget_us = None  # isolate pruning from the budget
        searcher.prune_epsilon = 0.05
        queries = vectors[:8] + 0.01
        batch = built_index.query(QueryRequest(vectors=queries, k=5, nprobe=8)).results
        singles = [built_index.query(QueryRequest.single(q, k=5, nprobe=8)).result for q in queries]
        for b, s in zip(batch, singles):
            assert b.postings_probed == s.postings_probed
            assert set(map(int, b.ids)) == set(map(int, s.ids))

    def test_undersized_postings_reported(self, built_index, vectors):
        # Shrink one posting below the merge threshold by deleting all but
        # one of its live vectors, then look at it from both search paths.
        from repro.spann.postings import live_view

        pid = built_index.controller.posting_ids()[0]
        data, _ = built_index.controller.get(pid)
        live = live_view(data, built_index.version_map)
        for vid in list(map(int, live.ids))[:-1]:
            built_index.delete(vid)
        centroid = built_index.centroid_index.get(pid)
        single = built_index.searcher.search(centroid, 5, nprobe=4)
        batch = built_index.searcher.search_many(centroid[None, :], 5, nprobe=4)[0]
        assert pid in single.undersized_postings
        assert batch.undersized_postings == single.undersized_postings

    def test_batch_search_triggers_merges(self, built_index, vectors):
        """End to end: a batched query schedules (deduplicated) merge jobs
        and drains them in synchronous mode, like a single query."""
        from repro.spann.postings import live_view

        pid = built_index.controller.posting_ids()[0]
        data, _ = built_index.controller.get(pid)
        live = live_view(data, built_index.version_map)
        for vid in list(map(int, live.ids))[:-1]:
            built_index.delete(vid)
        centroid = built_index.centroid_index.get(pid)
        before = built_index.stats.merge_jobs
        batch = np.vstack([centroid, centroid])
        built_index.query(QueryRequest(vectors=batch, k=5, nprobe=4))
        assert built_index.stats.merge_jobs >= before + 1
