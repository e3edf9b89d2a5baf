"""Tests for the foreground Updater (insert/delete paths)."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.core.jobs import FlushJob, ReassignJob, SplitJob
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


# ----------------------------------------------------------------------
# the one write path: re-route after a vanished posting
# ----------------------------------------------------------------------
class VanishingRoute:
    """Seam for the stale-target branch: the first ``times`` centroid
    searches (single, or one row of a batch) return normally and then their
    nearest posting vanishes the way a concurrent merge would take it (rows
    folded into the nearest other posting, posting and centroid deleted) —
    so the writer's append finds its routed target gone. A posting vanishes
    at most once: rows of one batch that share a nearest posting all find
    it gone, the first one's search having taken it."""

    def __init__(self, index, times: int) -> None:
        self.index, self.times = index, times
        self.real = index.centroid_index.search
        self.real_batch = index.centroid_index.search_batch
        self.vanished: list[int] = []
        index.centroid_index.search = self
        index.centroid_index.search_batch = self.batch

    def batch(self, queries, k):
        return [self.vanish(hits) for hits in self.real_batch(queries, k)]

    def __call__(self, query, k):
        return self.vanish(self.real(query, k))

    def vanish(self, hits):
        if self.times > 0 and len(hits) > 1:
            victim, heir = (int(pid) for pid in hits.posting_ids[:2])
            if victim in self.vanished:
                return hits  # an earlier row of this batch already took it
            self.times -= 1
            index = self.index
            data, _ = index.controller.get(victim)
            index.controller.append(heir, data)
            index.controller.delete(victim)
            index.centroid_index.remove(victim)
            index.locks.forget(victim)
            self.vanished.append(victim)
        return hits

    def restore(self) -> None:
        self.index.centroid_index.search = self.real
        self.index.centroid_index.search_batch = self.real_batch


def _write_path_index(vectors, small_config, **overrides):
    """Queue kept undrained so a test can see the jobs the writer put."""
    config = small_config.with_overrides(
        synchronous_rebuild=False, reassign_replicas=1, **overrides
    )
    return SPFreshIndex.build(vectors, config=config)


def _take_queued_jobs(index) -> list:
    """Empty the queue without running what was in it; return it."""
    jobs = []
    while not index.job_queue.empty():
        jobs.append(index.job_queue.get())
        index.job_queue.task_done()
    return jobs


def _run_queued_jobs(index) -> list:
    """Run what the write queued (not the cascade behind it); return it."""
    jobs = _take_queued_jobs(index)
    for job in jobs:
        index.rebuilder.process(job)
    return jobs


def _insert(index, vid, vector):
    index.insert(vid, vector)
    return [vid]


def _flush(index, vid, vector):
    """Three buffered rows near ``vector``; the first one's posting vanishes."""
    vids = [vid, vid + 1, vid + 2]
    for each in vids:
        index.insert(each, vector)
    assert len(index.fresh_tier) == 3 and index.job_queue.empty()
    index.rebuilder.process(FlushJob())
    return vids


def _reassign(index, vid, vector):
    """Move build vector 0 as a split's reassign job would (``vid`` unused)."""
    far = int(index.centroid_index.search(-vector, 1).nearest)
    job = ReassignJob(
        vector_ids=np.array([0]),
        vectors=vector[None, :],
        expected_versions=np.array([index.version_map.current_version(0)]),
        source_postings=np.array([far]),
    )
    index.rebuilder.process(job)
    return [0]


WRITE_PATH_CALLERS = [
    pytest.param(_insert, False, id="insert"),
    pytest.param(_flush, True, id="flush"),
    pytest.param(_reassign, False, id="reassign"),
]


class TestWritePathReroute:
    @pytest.mark.parametrize("write, fresh_tier", WRITE_PATH_CALLERS)
    def test_vanished_target_is_rerouted(self, vectors, small_config, write, fresh_tier):
        index = _write_path_index(vectors, small_config, enable_fresh_tier=fresh_tier)
        vector = vectors[0].copy()
        nearest, next_nearest = index.centroid_index.search(vector, 2).posting_ids
        route = VanishingRoute(index, times=1)
        vids = write(index, 9000, vector)
        route.restore()
        # One target vanished, counted once, and the copy went next door.
        assert route.vanished == [nearest]
        assert index.stats.reassign_posting_missing == 1
        assignment = live_assignment(index)
        assert all(assignment[vid] == {next_nearest} for vid in vids)
        # The heir took the victim's rows too, so it is now oversized and
        # the writer's split trigger still fired for it.
        assert index.controller.length(next_nearest) > index.config.max_posting_size
        # (cascade depth 1 when a reassign caused it, 0 for foreground data)
        depth = 1 if write is _reassign else 0
        assert SplitJob(next_nearest, depth) in _run_queued_jobs(index)
        if fresh_tier:
            assert len(index.fresh_tier) == 0  # every row landed, then left
            assert index.stats.fresh_flushed_vectors == len(vids)
            assert index.stats.appends == len(vids)
        index.drain()
        for vid in vids:
            found = index.query(
                QueryRequest.single(vector, k=5, nprobe=index.num_postings)
            ).result
            assert vid in found.ids
        assert index.check_invariants().ok

    @pytest.mark.parametrize("write, fresh_tier", WRITE_PATH_CALLERS)
    def test_losing_every_attempt_is_the_callers_error(
        self, vectors, small_config, write, fresh_tier
    ):
        index = _write_path_index(
            vectors, small_config, enable_fresh_tier=fresh_tier, max_reassign_retries=0
        )
        before = index.version_map.current_version(0), index.stats.reassign_executed
        route = VanishingRoute(index, times=10**6)
        with pytest.raises(IndexError_):
            write(index, 9000, vectors[0].copy())
        route.restore()
        assert index.stats.reassign_posting_missing == len(route.vanished)
        if write is _insert:
            # Registered, never landed: tombstoned rather than left live
            # with zero replicas.
            assert index.version_map.is_deleted(9000)
            assert index.stats.inserts == 0
            assert index.check_invariants().ok
        elif write is _flush:
            assert 9000 in index.fresh_tier  # still buffered, still acked
            assert index.stats.fresh_flushed_vectors == 0
        else:
            # Bumped, never landed: the bump is taken back, so the copies
            # the vector already had are live again.
            # 1 + max_reassign_retries attempts, as for every caller
            assert len(route.vanished) == 1 + index.config.max_reassign_retries
            after = index.version_map.current_version(0), index.stats.reassign_executed
            assert after == before
            assert index.check_invariants().lost_vectors == []

    def test_retries_are_bounded_by_max_reassign_retries(self, vectors, small_config):
        index = _write_path_index(vectors, small_config, max_reassign_retries=2)
        route = VanishingRoute(index, times=2)  # lose twice, land on the third
        index.insert(9000, vectors[0].copy())
        assert len(route.vanished) == index.stats.reassign_posting_missing == 2
        index.delete(9000)
        route.times = 3  # lose all 1 + 2 attempts
        with pytest.raises(IndexError_):
            index.insert(9001, vectors[0].copy())
        assert index.stats.reassign_posting_missing == 5

    def test_one_of_several_replicas_vanishing_needs_no_reroute(
        self, vectors, small_config
    ):
        index = _write_path_index(
            vectors, small_config, insert_replicas=3, closure_epsilon=100.0
        )
        vector = vectors[0].copy()
        targets = index.writer.route(vector, 3)
        assert len(targets) == 3
        route = VanishingRoute(index, times=1)
        index.insert(9000, vector)
        route.restore()
        assert route.vanished == [targets[0]]
        assert live_assignment(index)[9000] == set(targets[1:])
        assert index.stats.reassign_posting_missing == 1
        assert index.stats.appends == 2

    @pytest.mark.parametrize("replicas", [1, 3, 8])
    def test_route_batch_is_route_row_by_row(self, vectors, small_config, replicas):
        index = _write_path_index(vectors, small_config, closure_epsilon=0.5)
        batch = vectors[::7] + np.float32(0.25)
        routed = index.writer.route_batch(batch, replicas)
        assert routed == [index.writer.route(row, replicas) for row in batch]
        assert max(map(len, routed)) > 1 or replicas == 1
        assert index.writer.route_batch(batch[:0], replicas) == []

    def test_replicas_append_in_routing_order(self, vectors, small_config):
        index = _write_path_index(
            vectors, small_config, insert_replicas=3, closure_epsilon=100.0
        )
        vector = vectors[:64].mean(axis=0).astype(np.float32)
        hits = index.centroid_index.search(vector, 3)
        appended = []
        real_append = index.controller.append
        index.controller.append = lambda pid, rows: (
            appended.append(pid) or real_append(pid, rows)
        )
        index.insert(9000, vector)
        assert appended == [int(pid) for pid in hits.posting_ids]  # by distance
        assert index.stats.appends == 3

    @pytest.mark.parametrize("fresh_tier", [False, True])
    def test_bootstrap_counts_the_same_through_insert_and_flush(
        self, small_config, rng, fresh_tier
    ):
        config = small_config.with_overrides(enable_fresh_tier=fresh_tier)
        index = SPFreshIndex.build(
            rng.normal(size=(1, DIM)).astype(np.float32), config=config
        )
        index.delete(0)
        for pid in index.controller.posting_ids():
            index.controller.delete(pid)
            index.centroid_index.remove(pid)
        before = index.stats.snapshot()
        vec = rng.normal(size=DIM).astype(np.float32)
        index.insert(1, vec)
        index.flush_fresh_tier()
        delta = index.stats.snapshot().delta(before)
        assert (delta.inserts, delta.appends, index.num_postings) == (1, 1, 1)
        assert index.query(QueryRequest.single(vec, k=1)).result.ids[0] == 1


class TestFlushIsItsInserts:
    def test_a_flush_lands_its_rows_as_inserts_in_posting_order(
        self, vectors, small_config, rng
    ):
        """N rows through the fresh tier and one flush leave the postings and
        the queued split jobs that the same N rows leave as direct inserts
        taken in nearest-posting order, stably (no drain between them):
        same rows, same order, same split triggers in the same order."""
        direct = _write_path_index(vectors, small_config)
        flushed = _write_path_index(
            vectors, small_config, enable_fresh_tier=True, fresh_flush_threshold=10**6
        )
        # The higher posting id fills first in arrival order; the flush
        # still appends to, and splits, the lower one first.
        low, high = sorted(direct.controller.posting_ids())[:2]
        limit = small_config.max_posting_size
        near = [
            direct.centroid_index.get(pid) + rng.normal(scale=0.05, size=(limit, DIM))
            for pid in (high, low)
        ]
        stream = np.concatenate(
            [near[0], vectors[rng.choice(len(vectors), 40)] + 0.1, near[1]]
        ).astype(np.float32)
        for vid, vec in enumerate(stream, start=10_000):
            flushed.insert(vid, vec)
        assert len(flushed.fresh_tier) == len(stream) and flushed.job_queue.empty()
        flushed.rebuilder.process(FlushJob())
        assert len(flushed.fresh_tier) == 0
        nearest = [direct.writer.route(vec, 1)[0] for vec in stream]
        for row in sorted(range(len(stream)), key=nearest.__getitem__):
            direct.insert(10_000 + row, stream[row])

        splits = _take_queued_jobs(direct)
        assert _take_queued_jobs(flushed) == splits
        assert len(splits) >= 2
        assert splits.index(SplitJob(low, 0)) < splits.index(SplitJob(high, 0))
        pids = direct.controller.posting_ids()
        assert flushed.controller.posting_ids() == pids
        for pid in pids:
            want, _ = direct.controller.get(pid)
            got, _ = flushed.controller.get(pid)
            np.testing.assert_array_equal(got.ids, want.ids)
            np.testing.assert_array_equal(got.versions, want.versions)
            np.testing.assert_array_equal(got.vectors, want.vectors)
        assert flushed.stats.appends == direct.stats.appends
