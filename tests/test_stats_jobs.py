"""Tests for LIRE stats counters, job queue, and id allocation."""

import threading

import numpy as np
import pytest

from repro.core.ids import IdAllocator
from repro.core.jobs import JobQueue, MergeJob, SplitJob
from repro.core.stats import LireStats, StatsSnapshot
from tests.helpers import reassign_batch


class TestLireStats:
    def test_incr_and_read(self):
        stats = LireStats()
        stats.incr("splits")
        stats.incr("splits", 2)
        assert stats.splits == 3

    def test_snapshot_is_immutable_copy(self):
        stats = LireStats()
        stats.incr("merges")
        snap = stats.snapshot()
        stats.incr("merges")
        assert snap.merges == 1
        assert stats.merges == 2

    def test_delta(self):
        stats = LireStats()
        stats.incr("inserts", 10)
        before = stats.snapshot()
        stats.incr("inserts", 5)
        delta = stats.snapshot().delta(before)
        assert delta.inserts == 5

    def test_cascade_depth_max(self):
        stats = LireStats()
        stats.observe_cascade_depth(2)
        stats.observe_cascade_depth(1)
        assert stats.split_cascade_max_depth == 2

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            LireStats().nonexistent_counter

    def test_thread_safe_increments(self):
        stats = LireStats()

        def bump():
            for _ in range(1000):
                stats.incr("appends")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.appends == 4000

    def test_snapshot_fields_complete(self):
        snap = LireStats().snapshot()
        assert isinstance(snap, StatsSnapshot)
        assert snap.splits == 0 and snap.reassign_executed == 0


class TestJobQueue:
    def test_fifo_order(self):
        q = JobQueue()
        q.put(SplitJob(posting_id=1))
        q.put(SplitJob(posting_id=2))
        assert q.get().posting_id == 1
        q.task_done()
        assert q.get().posting_id == 2
        q.task_done()

    def test_pending_counts(self):
        q = JobQueue()
        assert q.empty()
        q.put(SplitJob(posting_id=1))
        assert q.pending == 1
        assert not q.empty()

    def test_join_after_task_done(self):
        q = JobQueue()
        q.put(SplitJob(posting_id=1))
        q.get()
        q.task_done()
        q.join()  # returns immediately

    def test_get_default_is_nonblocking(self):
        import queue as queue_mod
        import time

        q = JobQueue()
        start = time.perf_counter()
        with pytest.raises(queue_mod.Empty):
            q.get()
        # Regression: a falsy timeout must not silently change semantics.
        with pytest.raises(queue_mod.Empty):
            q.get(timeout=0)
        assert time.perf_counter() - start < 0.5

    def test_get_block_waits_for_producer(self):
        q = JobQueue()

        def producer():
            import time

            time.sleep(0.05)
            q.put(SplitJob(posting_id=9))

        t = threading.Thread(target=producer)
        t.start()
        # Seed bug: get(timeout=None) could never block; this would raise
        # Empty immediately instead of waiting for the producer.
        job = q.get(block=True)
        t.join()
        assert job.posting_id == 9

    def test_get_block_honors_timeout(self):
        import queue as queue_mod

        q = JobQueue()
        with pytest.raises(queue_mod.Empty):
            q.get(timeout=0.02, block=True)

    def test_split_jobs_deduplicated(self):
        q = JobQueue()
        assert q.put(SplitJob(posting_id=1))
        assert not q.put(SplitJob(posting_id=1))
        assert q.pending == 1
        q.get()
        q.task_done()
        # Marker cleared at dequeue: a fresh job can be scheduled.
        assert q.put(SplitJob(posting_id=1))

    def test_merge_jobs_deduplicated(self):
        q = JobQueue()
        assert q.put(MergeJob(posting_id=4))
        assert not q.put(MergeJob(posting_id=4))
        assert q.put(MergeJob(posting_id=5))
        assert q.pending == 2
        assert q.get().posting_id == 4
        q.task_done()
        assert q.put(MergeJob(posting_id=4))  # cleared at dequeue

    def test_split_and_merge_dedup_independent(self):
        q = JobQueue()
        assert q.put(SplitJob(posting_id=1))
        assert q.put(MergeJob(posting_id=1))  # different kind, same pid
        assert q.pending == 2

    def test_reassign_jobs_never_deduplicated(self):
        vec = np.ones(4, dtype=np.float32)
        q = JobQueue()
        job = reassign_batch([(1, vec, 0)], source_posting=2)
        assert q.put(job)
        assert q.put(job)
        assert q.pending == 2

    def test_chaos_hook_called_at_dequeue(self):
        points = []
        q = JobQueue(chaos=lambda point, detail: points.append(point))
        q.put(SplitJob(posting_id=1))
        q.get()
        assert "queue.get" in points and "queue.got" in points


class TestJobTypes:
    def test_jobs_are_frozen(self):
        job = SplitJob(posting_id=1)
        with pytest.raises(Exception):
            job.posting_id = 2

    def test_reassign_job_carries_context(self):
        vec = np.ones(4, dtype=np.float32)
        job = reassign_batch([(7, vec, 3), (8, 2 * vec, 0)], source_posting=9)
        assert job.vector_ids.tolist() == [7, 8]
        assert job.expected_versions.tolist() == [3, 0]
        assert job.vectors.shape == (2, 4) and job.vectors[1, 0] == 2.0
        assert job.source_postings.tolist() == [9, 9]  # one source per row
        with pytest.raises(Exception):
            job.source_postings = np.array([1, 1])


class TestIdAllocator:
    def test_monotonic(self):
        alloc = IdAllocator(5)
        assert [alloc.next() for _ in range(3)] == [5, 6, 7]
        assert alloc.peek() == 8

    def test_advance_to(self):
        alloc = IdAllocator()
        alloc.advance_to(100)
        assert alloc.next() == 100
        alloc.advance_to(50)  # never goes backwards
        assert alloc.next() == 101

    def test_thread_safety_no_duplicates(self):
        alloc = IdAllocator()
        out: list[int] = []
        lock = threading.Lock()

        def grab():
            local = [alloc.next() for _ in range(500)]
            with lock:
                out.extend(local)

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(out) == len(set(out)) == 2000
