"""Tests for the foreground Updater (insert/delete paths)."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.util.errors import IndexError_
from tests.conftest import DIM
from tests.helpers import live_assignment


class TestInsert:
    def test_insert_appends_to_nearest_posting(self, built_index, rng):
        pid = built_index.controller.posting_ids()[0]
        vec = built_index.centroid_index.get(pid) + 0.01  # at that centroid
        built_index.insert(9000, vec.astype(np.float32))
        hits = built_index.centroid_index.search(vec.astype(np.float32), 1)
        assignment = live_assignment(built_index)
        assert hits.nearest in assignment[9000]

    def test_insert_searchable_immediately(self, built_index, rng):
        vec = rng.normal(size=DIM).astype(np.float32)
        built_index.insert(5000, vec)
        result = built_index.query(
            QueryRequest.single(vec, k=1, nprobe=built_index.num_postings)
        ).result
        assert result.ids[0] == 5000

    def test_insert_duplicate_live_id_rejected(self, built_index, rng):
        with pytest.raises(IndexError_):
            built_index.insert(0, rng.normal(size=DIM).astype(np.float32))

    def test_insert_after_delete_same_id(self, built_index, rng):
        built_index.delete(0)
        vec = rng.normal(size=DIM).astype(np.float32)
        built_index.insert(0, vec)
        result = built_index.query(
            QueryRequest.single(vec, k=1, nprobe=built_index.num_postings)
        ).result
        assert result.ids[0] == 0

    def test_insert_returns_positive_latency(self, built_index, rng):
        latency = built_index.insert(7000, rng.normal(size=DIM).astype(np.float32))
        assert latency > 0

    def test_insert_counts(self, built_index, rng):
        before = built_index.stats.inserts
        for i in range(5):
            built_index.insert(8000 + i, rng.normal(size=DIM).astype(np.float32))
        assert built_index.stats.inserts == before + 5

    def test_insert_with_replicas(self, vectors, small_config, rng):
        config = small_config.with_overrides(insert_replicas=3, closure_epsilon=3.0)
        index = SPFreshIndex.build(vectors, config=config)
        # A vector exactly between clusters gets multiple replicas.
        vec = vectors[:64].mean(axis=0).astype(np.float32)
        index.insert(7777, vec)
        assignment = live_assignment(index)
        assert len(assignment[7777]) >= 1  # >=1 always; often >1 at boundary

    def test_bootstrap_from_empty(self, small_config, rng):
        """First insert into an empty index creates the first posting."""
        seed_vec = rng.normal(size=(1, DIM)).astype(np.float32)
        index = SPFreshIndex.build(seed_vec, config=small_config)
        # Delete the only vector and GC the posting away via merge-less GC.
        index.delete(0)
        index.gc_pass()
        # Now force-delete the empty posting to simulate a truly empty index.
        for pid in index.controller.posting_ids():
            index.controller.delete(pid)
            index.centroid_index.remove(pid)
        vec = rng.normal(size=DIM).astype(np.float32)
        index.insert(1, vec)
        assert index.num_postings == 1
        assert index.query(QueryRequest.single(vec, k=1)).result.ids[0] == 1


class TestDelete:
    def test_delete_hides_from_search(self, built_index, vectors):
        built_index.delete(7)
        result = built_index.query(
            QueryRequest.single(vectors[7], k=10, nprobe=built_index.num_postings)
        ).result
        assert 7 not in set(int(i) for i in result.ids)

    def test_delete_unknown_is_noop(self, built_index):
        before = built_index.stats.deletes
        built_index.delete(424242)
        assert built_index.stats.deletes == before

    def test_double_delete_counted_once(self, built_index):
        built_index.delete(3)
        built_index.delete(3)
        assert built_index.stats.deletes == 1

    def test_live_count_tracks_deletes(self, built_index, vectors):
        n = len(vectors)
        built_index.delete(0)
        built_index.delete(1)
        assert built_index.live_vector_count == n - 2


class TestSplitTrigger:
    def test_oversized_posting_queues_split(self, vectors, small_config, rng):
        config = small_config.with_overrides(synchronous_rebuild=False)
        index = SPFreshIndex.build(vectors, config=config)
        splits_at_build = index.stats.splits
        target_centroid = index.centroid_index.get(index.controller.posting_ids()[0])
        for i in range(small_config.max_posting_size + 5):
            index.insert(
                10_000 + i,
                (target_centroid + rng.normal(scale=0.05, size=DIM)).astype(
                    np.float32
                ),
            )
        assert index.job_queue.pending > 0
        assert index.stats.splits == splits_at_build  # not drained yet
        index.drain()
        assert index.stats.splits > splits_at_build

    def test_split_disabled_never_queues(self, vectors, rng):
        config = SPFreshConfig.spann_plus(
            dim=DIM,
            max_posting_size=32,
            build_target_posting_size=16,
            ssd_blocks=1 << 13,
        )
        index = SPFreshIndex.build(vectors, config=config)
        centroid = index.centroid_index.get(index.controller.posting_ids()[0])
        for i in range(50):
            index.insert(
                20_000 + i,
                (centroid + rng.normal(scale=0.05, size=DIM)).astype(np.float32),
            )
        index.drain()
        assert index.stats.splits == 0
        assert index.num_postings == len(index.controller.posting_ids())
