"""End-to-end tests of the SPFreshIndex public API and LIRE invariants."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.datasets import GroundTruthTracker
from tests.conftest import DIM
from tests.helpers import (
    assert_no_vector_lost,
    assert_posting_size_bounds,
    npa_violations,
)


class TestBuild:
    def test_build_registers_everything(self, built_index, vectors):
        assert built_index.live_vector_count == len(vectors)
        assert built_index.num_postings > 1

    def test_build_with_custom_ids(self, vectors, small_config):
        ids = np.arange(1000, 1000 + len(vectors))
        index = SPFreshIndex.build(vectors, ids=ids, config=small_config)
        result = index.query(QueryRequest.single(vectors[0], k=1, nprobe=index.num_postings)).result
        assert result.ids[0] == 1000

    def test_build_id_length_mismatch(self, vectors, small_config):
        with pytest.raises(ValueError):
            SPFreshIndex.build(vectors, ids=np.arange(3), config=small_config)

    def test_build_dim_inferred(self, vectors):
        index = SPFreshIndex.build(vectors, config=SPFreshConfig(dim=1, ssd_blocks=1 << 13))
        assert index.config.dim == DIM

    def test_initial_recall_is_high(self, built_index, vectors):
        queries = vectors[:30]
        hits = 0
        for i, q in enumerate(queries):
            result = built_index.query(QueryRequest.single(q, k=10, nprobe=8)).result
            if i in set(int(x) for x in result.ids):
                hits += 1
        assert hits >= 28  # the query vector itself must be found


class TestChurnInvariants:
    def churn(self, index, rng, rounds=300, id_start=100_000):
        """Random interleaved inserts/deletes biased toward one region."""
        tracker = {int(i) for i in range(index.live_vector_count)}
        hot = index.centroid_index.get(index.controller.posting_ids()[0])
        next_id = id_start
        for step in range(rounds):
            if step % 3 != 2:
                vec = (hot + rng.normal(scale=0.3, size=DIM)).astype(np.float32)
                index.insert(next_id, vec)
                tracker.add(next_id)
                next_id += 1
            elif tracker:
                victim = int(rng.choice(sorted(tracker)))
                index.delete(victim)
                tracker.discard(victim)
        index.drain()
        return tracker

    def test_no_vector_lost_under_churn(self, built_index, rng):
        live = self.churn(built_index, rng)
        assert_no_vector_lost(built_index, live)

    def test_posting_sizes_bounded_under_churn(self, built_index, rng):
        self.churn(built_index, rng)
        assert_posting_size_bounds(built_index)

    def test_npa_maintained_under_churn(self, built_index, rng):
        self.churn(built_index, rng)
        violations = npa_violations(built_index)
        assert len(violations) <= max(2, built_index.live_vector_count // 100)

    def test_convergence_jobs_terminate(self, built_index, rng):
        """Cascading split-reassign always drains (paper §3.4)."""
        self.churn(built_index, rng, rounds=200)
        # drain() already ran; queue must be empty and stay empty.
        assert built_index.job_queue.pending == 0
        executed = built_index.rebuilder.drain()
        assert executed == 0

    def test_split_count_bounded_by_vectors(self, built_index, rng):
        """|C| grows by one per split and |C| <= |V| (convergence bound)."""
        self.churn(built_index, rng)
        total_vectors = built_index.controller.total_entries()
        assert built_index.stats.splits <= total_vectors

    def test_recall_stays_high_under_churn(self, built_index, vectors, rng):
        tracker = GroundTruthTracker(
            np.arange(len(vectors)), vectors
        )
        hot = built_index.centroid_index.get(built_index.controller.posting_ids()[0])
        for i in range(200):
            vid = 200_000 + i
            vec = (hot + rng.normal(scale=0.3, size=DIM)).astype(np.float32)
            built_index.insert(vid, vec)
            tracker.insert(vid, vec)
        built_index.drain()
        queries = vectors[:20]
        gt = tracker.ground_truth(queries, 10)
        recalls = []
        for i, q in enumerate(queries):
            result = built_index.query(QueryRequest.single(q, k=10, nprobe=8)).result
            recalls.append(
                len(set(map(int, result.ids)) & set(map(int, gt[i]))) / 10
            )
        assert np.mean(recalls) > 0.8


class TestReinsert:
    def test_reinserted_id_does_not_resurrect_old_replicas(self, vectors, small_config):
        """delete(id) then insert(id, moved vector): the replicas of the
        first incarnation are still on disk (GC is lazy) and must stay
        dead — the id is found at its new position only."""
        # No build-time splits: every replica on disk is at version 0.
        built_index = SPFreshIndex.build(
            vectors, config=small_config.with_overrides(max_posting_size=256)
        )
        vid = 17
        assert built_index.version_map.current_version(vid) == 0
        old, new = vectors[vid], vectors[vid] + 50.0
        built_index.delete(vid)
        built_index.insert(vid, new)

        at_old = built_index.query(QueryRequest.single(old, k=5, nprobe=8))
        assert vid not in at_old.ids.tolist()
        at_new = built_index.query(QueryRequest.single(new, k=5, nprobe=8))
        assert at_new.ids[0] == vid and at_new.distances[0] == 0.0
        assert built_index.check_invariants().ok
        assert_no_vector_lost(built_index, range(len(vectors)))


class TestMaintenance:
    def test_gc_pass_reclaims_dead_entries(self, built_index, vectors):
        for vid in range(0, 100):
            built_index.delete(vid)
        entries_before = built_index.controller.total_entries()
        rewritten = built_index.gc_pass()
        assert rewritten > 0
        assert built_index.controller.total_entries() < entries_before

    def test_gc_pass_bounded(self, built_index):
        for vid in range(0, 50):
            built_index.delete(vid)
        assert built_index.gc_pass(max_postings=1) <= 1

    def test_memory_accounting_positive_components(self, built_index):
        total = built_index.memory_bytes()
        assert total > 0
        assert built_index.centroid_index.memory_bytes() > 0
        assert built_index.version_map.memory_bytes() > 0
        assert built_index.controller.mapping_memory_bytes() > 0

    def test_posting_sizes_snapshot(self, built_index):
        sizes = built_index.posting_sizes()
        assert len(sizes) == built_index.num_postings
        assert (sizes >= 0).all()

    def test_replica_histogram(self, built_index, vectors):
        histogram = built_index.replica_histogram()
        assert sum(histogram.values()) == len(vectors)
        assert all(count >= 1 for count in histogram)

    def test_replica_histogram_skips_stale_postings(self, built_index, vectors):
        from repro.util.errors import StalePostingError

        replica_mass = lambda h: sum(rc * freq for rc, freq in h.items())  # noqa: E731
        baseline = replica_mass(built_index.replica_histogram())
        original_get = built_index.controller.get
        skipped_pid = built_index.controller.posting_ids()[0]

        def flaky_get(pid):
            if pid == skipped_pid:
                raise StalePostingError(f"posting {pid} does not exist")
            return original_get(pid)

        built_index.controller.get = flaky_get
        # Concurrently-deleted postings are skipped, not fatal.
        assert replica_mass(built_index.replica_histogram()) < baseline

    def test_replica_histogram_propagates_storage_errors(self, built_index):
        """Regression: a blanket ``except Exception`` used to silently
        swallow real storage failures, not just concurrent deletions."""
        from repro.util.errors import StorageError

        def broken_get(pid):
            raise StorageError("device read failed")

        built_index.controller.get = broken_get
        with pytest.raises(StorageError):
            built_index.replica_histogram()

    def test_checkpoint_requires_snapshot_manager(self, built_index):
        with pytest.raises(ValueError):
            built_index.checkpoint()


class TestBatchAPI:
    def test_insert_batch(self, built_index, rng):
        ids = np.arange(300_000, 300_010)
        vecs = rng.normal(size=(10, DIM)).astype(np.float32)
        latencies = built_index.insert_batch(ids, vecs)
        assert len(latencies) == 10
        assert built_index.live_vector_count >= 10
        # A length mismatch is an error, not a silent truncation to the
        # shorter input — and nothing of the batch is applied.
        live = built_index.live_vector_count
        with pytest.raises(ValueError):
            built_index.insert_batch(np.arange(300_010, 300_013), vecs[:5])
        assert built_index.live_vector_count == live

    def test_delete_batch(self, built_index):
        live_before = built_index.live_vector_count
        built_index.delete_batch(np.arange(5))
        assert built_index.live_vector_count == live_before - 5
