"""Tests for the Local Rebuilder: split, merge, reassign semantics."""

import dataclasses

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex
from repro.core.jobs import MergeJob, SplitJob
from repro.storage.layout import PostingData
from repro.util.errors import IndexError_, StorageError
from tests.conftest import DIM
from tests.helpers import (
    assert_no_vector_lost,
    assert_posting_size_bounds,
    live_assignment,
    live_vector_of,
    npa_violations,
    reassign_batch,
)


def stuff_posting(index, rng, posting_id=None, count=None, id_start=50_000):
    """Insert vectors right at a posting's centroid until it must split."""
    if posting_id is None:
        posting_id = index.controller.posting_ids()[0]
    count = count or (index.config.max_posting_size + 10)
    centroid = index.centroid_index.get(posting_id)
    ids = []
    for i in range(count):
        vid = id_start + i
        index.updater.insert(
            vid, (centroid + rng.normal(scale=0.05, size=DIM)).astype(np.float32)
        )
        ids.append(vid)
    return ids


class TestSplit:
    def test_split_replaces_posting_with_two(self, built_index, rng):
        postings_before = built_index.num_postings
        stuff_posting(built_index, rng)
        built_index.drain()
        assert built_index.stats.splits >= 1
        assert built_index.num_postings > postings_before

    def test_split_conserves_live_vectors(self, built_index, vectors, rng):
        new_ids = stuff_posting(built_index, rng)
        built_index.drain()
        expected = list(range(len(vectors))) + new_ids
        assert_no_vector_lost(built_index, expected)

    def test_split_bounds_posting_sizes(self, built_index, rng):
        stuff_posting(built_index, rng, count=200)
        built_index.drain()
        assert_posting_size_bounds(built_index)

    def test_gc_only_split_when_mostly_dead(self, built_index, rng):
        """A posting whose length is inflated by dead entries is garbage
        collected by the split job rather than split (paper §4.2.1)."""
        new_ids = stuff_posting(built_index, rng, count=40, id_start=60_000)
        built_index.drain()
        for vid in new_ids:
            built_index.updater.delete(vid)
        target = dirtiest_posting(built_index)
        splits_before = built_index.stats.splits
        gc_before = built_index.stats.gc_writebacks
        built_index.rebuilder.process(SplitJob(posting_id=target))
        built_index.drain()
        assert (
            built_index.stats.gc_writebacks > gc_before
            or built_index.stats.splits > splits_before
        )

    def test_split_missing_posting_is_noop(self, built_index):
        before = built_index.stats.splits
        built_index.rebuilder.process(SplitJob(posting_id=987654))
        assert built_index.stats.splits == before

    def test_old_centroid_removed_new_added(self, built_index, rng):
        stuff_posting(built_index, rng)
        victims_before = set(built_index.controller.posting_ids())
        built_index.drain()
        # The split posting's id must be gone; fresh ids allocated.
        after = set(built_index.controller.posting_ids())
        assert after != victims_before
        for pid in after:
            assert pid in built_index.centroid_index


def dirtiest_posting(index):
    """Posting holding the most dead (stale or tombstoned) entries."""
    from repro.spann.postings import live_view

    best_pid, best_dead = None, -1
    for pid in index.controller.posting_ids():
        data, _ = index.controller.get(pid)
        dead = len(data) - len(live_view(data, index.version_map))
        if dead > best_dead:
            best_pid, best_dead = pid, dead
    return best_pid


class TestReassign:
    def test_reassign_restores_npa(self, built_index, rng):
        stuff_posting(built_index, rng, count=150)
        built_index.drain()
        violations = npa_violations(built_index)
        # LIRE guarantee: after quiescence NPA violations are rare (the
        # paper's reassign-range check is deliberately approximate).
        assert len(violations) <= max(4, built_index.live_vector_count // 64)

    def test_disable_reassign_leaves_violations(self, vectors, small_config, rng):
        from repro.core.index import SPFreshIndex

        config = small_config.with_overrides(enable_reassign=False)
        index = SPFreshIndex.build(vectors, config=config)
        stuff_posting(index, rng, count=150)
        index.drain()
        with_off = len(npa_violations(index))

        index2 = SPFreshIndex.build(vectors, config=small_config)
        stuff_posting(index2, rng, count=150)
        index2.drain()
        with_on = len(npa_violations(index2))
        assert with_on <= with_off

    def test_stale_version_job_aborts(self, built_index, rng):
        vec = rng.normal(size=DIM).astype(np.float32)
        built_index.insert(70_000, vec)
        job = reassign_batch([(70_000, vec, 5)], source_posting=0)
        before = built_index.stats.reassign_aborted_version
        built_index.rebuilder.process(job)
        assert built_index.stats.reassign_aborted_version == before + 1

    def test_deleted_vector_job_aborts(self, built_index, rng):
        vec = rng.normal(size=DIM).astype(np.float32)
        built_index.insert(70_001, vec)
        built_index.delete(70_001)
        job = reassign_batch([(70_001, vec, 0)], source_posting=0)
        before = built_index.stats.reassign_aborted_version
        built_index.rebuilder.process(job)
        assert built_index.stats.reassign_aborted_version == before + 1

    def test_npa_false_positive_aborts(self, built_index, rng):
        """A vector already in its nearest posting is a false positive."""
        pid0 = built_index.controller.posting_ids()[0]
        centroid = built_index.centroid_index.get(pid0)
        vec = (centroid + rng.normal(scale=0.01, size=DIM)).astype(np.float32)
        built_index.insert(70_002, vec)
        hits = built_index.centroid_index.search(vec, 1)
        job = reassign_batch([(70_002, vec, 0)], source_posting=hits.nearest)
        before = built_index.stats.reassign_aborted_npa
        built_index.rebuilder.process(job)
        assert built_index.stats.reassign_aborted_npa == before + 1

    def test_executed_reassign_bumps_version(self, built_index, rng):
        # Plant a vector in a *wrong* posting deliberately, then reassign.
        vec, far_pid = self.plant_misplaced(built_index, rng, 70_003)
        job = reassign_batch([(70_003, vec, 0)], source_posting=far_pid)
        built_index.rebuilder.process(job)
        built_index.drain()
        assert built_index.version_map.current_version(70_003) == 1
        assignment = live_assignment(built_index)
        assert far_pid not in assignment.get(70_003, {far_pid})

    def plant_misplaced(self, index, rng, vid):
        """Register ``vid`` and plant its only copy in a posting far from
        its nearest centroid; returns (vector, that posting)."""
        far_pid = index.controller.posting_ids()[-1]
        near_pid = index.controller.posting_ids()[0]
        centroid = index.centroid_index.get(near_pid)
        vec = (centroid + rng.normal(scale=0.01, size=DIM)).astype(np.float32)
        version = index.version_map.register(vid)
        index.controller.append(far_pid, PostingData.from_rows([vid], [version], vec))
        return vec, far_pid

    def test_batch_with_same_id_twice_executes_it_once(self, built_index, rng):
        """Both rows pass the batch-wide pre-check; the per-row re-check
        is what stops the second one after the first moved the vector."""
        vec, far_pid = self.plant_misplaced(built_index, rng, 70_004)
        job = reassign_batch([(70_004, vec, 0), (70_004, vec, 0)], source_posting=far_pid)
        before = built_index.stats.snapshot()
        built_index.rebuilder.process(job)
        delta = built_index.stats.snapshot().delta(before)
        assert delta.reassign_executed == 1
        assert delta.reassign_aborted_version == 1
        assert built_index.version_map.current_version(70_004) == 1

    def test_stale_batch_is_counted_in_bulk_and_routes_nothing(
        self, built_index, rng, monkeypatch
    ):
        """Rows that went stale between scheduling and dequeue never
        reach the centroid index."""
        rows = []
        for vid in (70_010, 70_011, 70_012):
            vec, far_pid = self.plant_misplaced(built_index, rng, vid)
            rows.append((vid, vec, 0))
        job = reassign_batch(rows, source_posting=far_pid)
        built_index.updater.delete(70_010)
        built_index.version_map.cas_bump(70_011, 0)
        built_index.updater.delete(70_012)

        def no_routing(*args, **kwargs):
            raise AssertionError("a stale row was routed")

        monkeypatch.setattr(built_index.centroid_index, "search", no_routing)
        before = built_index.stats.snapshot()
        built_index.rebuilder.process(job)
        delta = built_index.stats.snapshot().delta(before)
        assert delta.reassign_aborted_version == 3
        assert delta.reassign_executed == 0 and delta.appends == 0

    def test_rows_run_in_order_and_survivors_still_move(self, built_index, rng):
        """A stale row in the middle does not stop the rows around it."""
        rows = []
        for vid in (70_020, 70_021, 70_022):
            vec, far_pid = self.plant_misplaced(built_index, rng, vid)
            rows.append((vid, vec, 0))
        built_index.updater.delete(70_021)
        before = built_index.stats.snapshot()
        built_index.rebuilder.process(reassign_batch(rows, source_posting=far_pid))
        built_index.drain()
        delta = built_index.stats.snapshot().delta(before)
        assert delta.reassign_executed == 2 and delta.reassign_aborted_version == 1
        assignment = live_assignment(built_index)
        for vid in (70_020, 70_022):
            assert built_index.version_map.current_version(vid) == 1
            assert far_pid not in assignment[vid]

    def test_reassign_scheduled_counts_rows_not_jobs(self, built_index, rng):
        """One job per scheduling call; the counter is the rows it holds,
        and every row remembers the posting it was read from."""
        pid, other = built_index.controller.posting_ids()[:2]
        data, _ = built_index.controller.get(pid)
        more, _ = built_index.controller.get(other)
        assert len(data) >= 4 and len(more) >= 1
        built_index.updater.delete(int(data.ids[0]))  # dead rows are not queued
        mask = np.ones(len(data), dtype=bool)
        mask[1] = False
        rebuilder = built_index.rebuilder
        before = built_index.stats.reassign_scheduled
        everything, nothing = np.ones(len(more), bool), np.zeros(len(data), bool)
        rebuilder._queue_reassign(
            [(data, mask, pid), (data, nothing, 99), (more, everything, other)]
        )
        assert built_index.job_queue.pending == 1
        job = built_index.job_queue.get()
        built_index.job_queue.task_done()
        kept = len(data) - 2
        # (the deleted id may have a replica in the second posting too)
        more = more.select(more.ids != data.ids[0])
        assert job.source_postings.tolist() == [pid] * kept + [other] * len(more)
        assert job.vector_ids.tolist() == data.ids[2:].tolist() + more.ids.tolist()
        assert np.array_equal(job.vectors[:kept], data.vectors[2:])
        assert np.array_equal(job.expected_versions[:kept], data.versions[2:])
        assert built_index.stats.reassign_scheduled - before == kept + len(more)
        # Nothing live to move: no job at all.
        rebuilder._queue_reassign([(data, nothing, pid)])
        assert built_index.job_queue.pending == 0

    def test_a_split_queues_one_reassign_job(self, built_index, rng):
        """Both halves and every neighbour's candidates ride in one job."""
        stuff_posting(built_index, rng)
        split = built_index.job_queue.get()
        built_index.job_queue.task_done()
        assert isinstance(split, SplitJob) and built_index.job_queue.empty()
        before = built_index.stats.snapshot()
        built_index.rebuilder.process(split)
        delta = built_index.stats.snapshot().delta(before)
        jobs = []
        while not built_index.job_queue.empty():
            jobs.append(built_index.job_queue.get())
            built_index.job_queue.task_done()
        reassigns = [job for job in jobs if not isinstance(job, SplitJob)]
        assert delta.splits == 1 and len(reassigns) == 1
        (job,) = reassigns
        assert len(job.vector_ids) == delta.reassign_scheduled > 0
        assert len(set(job.source_postings.tolist())) > 1
        # Grouped by source, in collection order: each source is one run.
        sources = job.source_postings
        assert np.count_nonzero(np.diff(sources)) == len(set(sources.tolist())) - 1

    @pytest.mark.parametrize("false_positive_first", [True, False])
    def test_one_id_from_two_sources_is_routed_once_and_moved_once(
        self, built_index, rng, false_positive_first
    ):
        """The NPA check is per row (against *that row's* source); the
        routing is per distinct id."""
        vec, far_pid = self.plant_misplaced(built_index, rng, 70_050)
        near_pid = built_index.centroid_index.search(vec, 1).nearest
        built_index.controller.append(
            near_pid, PostingData.from_rows([70_050], [0], vec)
        )
        sources = [near_pid, far_pid] if false_positive_first else [far_pid, near_pid]
        job = dataclasses.replace(
            reassign_batch([(70_050, vec, 0), (70_050, vec, 0)], source_posting=0),
            source_postings=np.array(sources),
        )
        routed = []
        real = built_index.centroid_index.search_batch
        built_index.centroid_index.search_batch = lambda queries, k: (
            routed.append(len(queries)) or real(queries, k)
        )
        before = built_index.stats.snapshot()
        built_index.rebuilder.process(job)
        delta = built_index.stats.snapshot().delta(before)
        assert routed == [1]
        assert delta.reassign_executed == 1
        assert delta.reassign_aborted_npa == (1 if false_positive_first else 0)
        assert delta.reassign_aborted_version == (0 if false_positive_first else 1)
        assert built_index.version_map.current_version(70_050) == 1
        assert near_pid in live_assignment(built_index)[70_050]

    def fill_job(self, index, rng, plan, id_start):
        """A job of registered vectors: ``plan`` is [(posting, rows), ...],
        each row sitting at that posting's centroid; the source is a
        posting none of them routes to."""
        rows = []
        for pid, count in plan:
            centroid = index.centroid_index.get(pid)
            for _ in range(count):
                vid = id_start + len(rows)
                index.version_map.register(vid)
                vec = centroid + rng.normal(scale=0.01, size=DIM)
                rows.append((vid, vec.astype(np.float32), 0))
        source = index.controller.posting_ids()[-1]
        assert source not in {pid for pid, _ in plan}
        return reassign_batch(rows, source_posting=source)

    def test_split_triggers_fire_in_row_order_not_append_order(self, built_index, rng):
        """Two postings tip over the limit in one job: their SplitJobs are
        queued in the order one-row-at-a-time appends would queue them."""
        first, second = built_index.controller.posting_ids()[:2]
        limit = built_index.config.max_posting_size
        room = {pid: limit - built_index.controller.length(pid) for pid in (first, second)}
        # `first` takes the job's first row (so it is appended first), but
        # `second` is the one that crosses the limit first in row order.
        job = self.fill_job(
            built_index,
            rng,
            [(first, 1), (second, room[second] + 1), (first, room[first] + 1)],
            id_start=71_000,
        )
        replicas = built_index.config.reassign_replicas
        controller = built_index.controller
        lengths = {pid: controller.length(pid) for pid in controller.posting_ids()}
        expected = []  # replay (row, rank) one append at a time
        for vec in job.vectors:
            for pid in built_index.writer.route(vec, replicas):
                lengths[pid] += 1
                if lengths[pid] > limit and pid not in expected:
                    expected.append(pid)
        assert expected[:2] == [second, first]
        appended = []
        real = built_index.controller.append
        built_index.controller.append = lambda pid, rows: (
            appended.append(pid) or real(pid, rows)
        )
        built_index.rebuilder.process(job)
        assert appended[:2] == [first, second] and len(appended) == len(set(appended))
        queued = []
        while not built_index.job_queue.empty():
            queued.append(built_index.job_queue.get())
            built_index.job_queue.task_done()
        assert queued == [SplitJob(pid, 1) for pid in expected]

    def test_one_job_lands_what_one_job_per_source_landed(self, vectors, small_config, rng):
        """A job spanning several sources leaves byte-identical postings
        to the same rows fed as one job per source (the earlier shape)."""
        whole, pieces = (
            SPFreshIndex.build(vectors, config=small_config) for _ in range(2)
        )
        pids = whole.controller.posting_ids()
        near = whole.centroid_index.get(pids[0])
        rows, sources = [], []
        for i, source in enumerate([pids[-1]] * 12 + [pids[-2]] * 12 + [pids[-3]] * 12):
            vid = 72_000 + i % 30  # the last six repeat ids of the first source
            vec = (near + np.float32(0.01) * (i % 30)).astype(np.float32)
            rows.append((vid, vec, 0))
            sources.append(source)
        for index in (whole, pieces):
            for vid, vec, _ in rows[:30]:
                index.version_map.register(vid)
            for (vid, vec, _), source in zip(rows, sources):
                index.controller.append(source, PostingData.from_rows([vid], [0], vec))
        job = reassign_batch(rows, source_posting=0)
        whole.rebuilder.process(
            dataclasses.replace(job, source_postings=np.array(sources))
        )
        for start in (0, 12, 24):
            pieces.rebuilder.process(
                reassign_batch(rows[start : start + 12], source_posting=sources[start])
            )
        whole.drain()
        pieces.drain()
        assert whole.stats.snapshot() == pieces.stats.snapshot()
        assert whole.stats.reassign_executed >= 30
        assert whole.controller.posting_ids() == pieces.controller.posting_ids()
        for pid in whole.controller.posting_ids():
            ours, _ = whole.controller.get(pid)
            theirs, _ = pieces.controller.get(pid)
            assert ours.ids.tobytes() == theirs.ids.tobytes()
            assert ours.versions.tobytes() == theirs.versions.tobytes()
            assert ours.vectors.tobytes() == theirs.vectors.tobytes()
        assert np.array_equal(
            whole.version_map.state_dict()["bytes"],
            pieces.version_map.state_dict()["bytes"],
        )

    def test_failed_append_takes_the_version_bump_back(self, small_config, rng):
        """A reassign that bumped a version and then could not land a copy
        used to leave the vector live with no live replica."""
        centers = rng.normal(scale=5.0, size=(6, DIM)).astype(np.float32)

        def blobs(n, drift=0.0):
            which = rng.integers(0, len(centers), size=n)
            noise = rng.normal(scale=0.7, size=(n, DIM))
            return (centers[which] + drift + noise).astype(np.float32)

        base = blobs(600)
        index = SPFreshIndex.build(base, config=small_config)
        rebuilder, controller = index.rebuilder, index.controller
        state = {"reassigning": False, "appends": 0, "failed": 0}
        run_reassign, append = rebuilder._run_reassign, controller.append

        def tracked_reassign(job):
            state["reassigning"] = True
            try:
                run_reassign(job)
            finally:
                state["reassigning"] = False

        def flaky_append(pid, rows):
            if state["reassigning"]:
                state["appends"] += 1
                if state["appends"] % 2 == 0:
                    state["failed"] += 1
                    raise StorageError("injected: device refused the append")
            return append(pid, rows)

        rebuilder._run_reassign = tracked_reassign
        controller.append = flaky_append
        inserted = blobs(300, drift=1.5)
        for i, vec in enumerate(inserted):
            pending = True
            try:
                index.insert(10_000 + i, vec)
                pending = False
            except StorageError:
                pass
            while pending:
                try:
                    index.drain()
                    pending = False
                except StorageError:
                    pass
        controller.append = append
        rebuilder._run_reassign = run_reassign
        assert state["failed"] > 5 and index.stats.reassign_executed > 0
        report = index.check_invariants()
        assert report.lost_vectors == []
        vector_of = dict(enumerate(base)) | {
            10_000 + i: vec for i, vec in enumerate(inserted)
        }
        assert sorted(vector_of) == index.version_map.live_ids().tolist()
        for vid, vec in vector_of.items():
            found = index.query(
                QueryRequest.single(vec, k=1, nprobe=index.num_postings)
            ).result
            assert found.ids[0] == vid

    def test_drain_counts_a_batch_as_one_job(self, built_index, rng):
        rows = []
        for vid in (70_030, 70_031):
            vec, far_pid = self.plant_misplaced(built_index, rng, vid)
            rows.append((vid, vec, 0))
        built_index.job_queue.put(reassign_batch(rows, source_posting=far_pid))
        before = built_index.stats.reassign_executed
        assert built_index.rebuilder.drain(max_jobs=1) == 1
        assert built_index.stats.reassign_executed - before == 2

    def test_pending_reassign_cannot_revive_a_reinserted_ids_old_vector(
        self, built_index, rng
    ):
        """ABA: a row queued for the first incarnation of an id (expected
        version 0) must not match the re-inserted id and re-append the
        old vector over the new one."""
        old_vec, far_pid = self.plant_misplaced(built_index, rng, 70_040)
        job = reassign_batch([(70_040, old_vec, 0)], source_posting=far_pid)
        built_index.delete(70_040)
        new_vec = old_vec + 40.0
        built_index.insert(70_040, new_vec)
        before = built_index.stats.snapshot()
        built_index.rebuilder.process(job)
        built_index.drain()
        delta = built_index.stats.snapshot().delta(before)
        assert delta.reassign_aborted_version == 1 and delta.reassign_executed == 0
        assert np.array_equal(live_vector_of(built_index, 70_040), new_vec)


class TestMerge:
    def make_small_posting(self, index, rng):
        """Delete vectors from a posting until it is undersized."""
        pid = self.healthy_posting(index)
        data, _ = index.controller.get(pid)
        survivors = int(index.config.min_posting_size) - 1
        for vid in data.ids[survivors:]:
            index.updater.delete(int(vid))
        return pid

    def test_merge_removes_posting(self, built_index, rng):
        pid = self.make_small_posting(built_index, rng)
        built_index.rebuilder.process(MergeJob(posting_id=pid))
        built_index.drain()
        assert built_index.stats.merges == 1
        assert not built_index.controller.exists(pid)
        assert pid not in built_index.centroid_index

    def test_merge_preserves_live_vectors(self, built_index, vectors, rng):
        pid = self.make_small_posting(built_index, rng)
        deleted = built_index.version_map.deleted_count
        built_index.rebuilder.process(MergeJob(posting_id=pid))
        built_index.drain()
        expected = [
            i for i in range(len(vectors)) if not built_index.version_map.is_deleted(i)
        ]
        assert_no_vector_lost(built_index, expected)
        assert built_index.version_map.deleted_count == deleted

    @staticmethod
    def healthy_posting(index):
        for pid in index.controller.posting_ids():
            if index.controller.length(pid) >= index.config.min_posting_size * 2:
                return pid
        raise AssertionError("no healthy posting found")

    def test_merge_skips_healthy_posting(self, built_index):
        pid = self.healthy_posting(built_index)
        built_index.rebuilder.process(MergeJob(posting_id=pid))
        assert built_index.stats.merges == 0
        assert built_index.controller.exists(pid)

    def test_merge_missing_posting_noop(self, built_index):
        built_index.rebuilder.process(MergeJob(posting_id=313371))
        assert built_index.stats.merges == 0

    def test_search_triggers_merge(self, built_index, vectors, rng):
        """The searcher reports undersized postings; query() queues merges."""
        pid = self.make_small_posting(built_index, rng)
        centroid = built_index.centroid_index.get(pid)
        built_index.query(QueryRequest.single(centroid, k=5, nprobe=4))
        built_index.drain()
        assert built_index.stats.merge_jobs >= 1


class TestDrain:
    def test_drain_returns_job_count(self, built_index, rng):
        stuff_posting(built_index, rng, count=10)
        pid = built_index.controller.posting_ids()[0]
        built_index.job_queue.put(SplitJob(posting_id=pid))
        executed = built_index.rebuilder.drain()
        assert executed >= 1

    def test_drain_bounded(self, built_index):
        pids = built_index.controller.posting_ids()[:5]
        for pid in pids:
            built_index.job_queue.put(SplitJob(posting_id=pid))
        assert built_index.rebuilder.drain(max_jobs=3) == 3

    def test_duplicate_split_jobs_deduped(self, built_index):
        pid = built_index.controller.posting_ids()[0]
        for _ in range(5):
            built_index.job_queue.put(SplitJob(posting_id=pid))
        assert built_index.job_queue.pending == 1

    def test_unknown_job_type_raises(self, built_index):
        with pytest.raises(IndexError_):
            built_index.rebuilder.process(object())
