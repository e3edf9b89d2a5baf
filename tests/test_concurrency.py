"""Concurrency tests: background pipeline, locks, CAS races."""

import threading

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex
from repro.core.jobs import PostingLockManager
from tests.conftest import DIM
from tests.helpers import assert_no_vector_lost, npa_violations, reassign_batch


class TestLockManager:
    def test_hold_single(self):
        locks = PostingLockManager()
        with locks.hold(3):
            pass  # no deadlock, no error

    def test_hold_multiple_sorted(self):
        locks = PostingLockManager()
        with locks.hold(5, 2, 9):
            with locks.hold(2):  # RLock: re-entrant from same thread
                pass

    def test_contention_counted(self):
        locks = PostingLockManager()
        started = threading.Event()
        release = threading.Event()

        def holder():
            with locks.hold(1):
                started.set()
                release.wait(timeout=5)

        t = threading.Thread(target=holder)
        t.start()
        started.wait(timeout=5)
        grabbed = threading.Event()

        def contender():
            with locks.hold(1):
                grabbed.set()

        t2 = threading.Thread(target=contender)
        t2.start()
        # Give the contender time to hit the lock, then release.
        import time

        time.sleep(0.05)
        release.set()
        t.join()
        t2.join()
        assert grabbed.is_set()
        assert locks.contention_hits >= 1
        assert 0.0 < locks.contention_rate <= 1.0

    def test_forget_releases_metadata(self):
        locks = PostingLockManager()
        with locks.hold(1):
            pass
        locks.forget(1)
        with locks.hold(1):  # re-created on demand
            pass

    def test_deadlock_free_opposite_order(self):
        """Two threads acquiring {a,b} in opposite argument order never
        deadlock because hold() sorts ids."""
        locks = PostingLockManager()
        errors = []

        def worker(first, second):
            try:
                for _ in range(200):
                    with locks.hold(first, second):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        t1 = threading.Thread(target=worker, args=(1, 2))
        t2 = threading.Thread(target=worker, args=(2, 1))
        t1.start(); t2.start()
        t1.join(timeout=10); t2.join(timeout=10)
        assert not t1.is_alive() and not t2.is_alive()
        assert not errors


class TestLockLifecycle:
    """Regression tests for the forget/hold lifecycle race.

    On the seed implementation ``forget`` popped the lock entry outright,
    so a thread arriving after the forget minted a *fresh* lock while the
    old one was still held/contended — two threads inside "mutually
    excluded" critical sections for the same posting id.
    """

    def test_forget_while_held_still_mutually_excludes(self):
        locks = PostingLockManager()
        in_critical = threading.Event()
        release = threading.Event()
        overlap = threading.Event()

        def first_holder():
            with locks.hold(7):
                in_critical.set()
                release.wait(timeout=5)

        def late_contender():
            with locks.hold(7):
                if not release.is_set():
                    overlap.set()  # entered while first_holder still held

        t1 = threading.Thread(target=first_holder)
        t1.start()
        assert in_critical.wait(timeout=5)
        locks.forget(7)  # posting deleted while its lock is held
        t2 = threading.Thread(target=late_contender)
        t2.start()
        t2.join(timeout=0.3)  # must still be blocked on the shared lock
        assert not overlap.is_set(), "contender entered while lock was held"
        release.set()
        t1.join(timeout=5)
        t2.join(timeout=5)
        assert not overlap.is_set()

    def test_contenders_across_forget_stay_exclusive(self):
        """Two threads hammering one posting across repeated forgets never
        overlap in the critical section."""
        import time

        locks = PostingLockManager()
        guard = threading.Lock()
        state = {"active": 0, "max_active": 0}
        stop = threading.Event()

        def worker():
            for _ in range(60):
                with locks.hold(3):
                    with guard:
                        state["active"] += 1
                        state["max_active"] = max(
                            state["max_active"], state["active"]
                        )
                    time.sleep(0.0003)
                    with guard:
                        state["active"] -= 1

        def forgetter():
            while not stop.is_set():
                locks.forget(3)
                time.sleep(0.0001)

        workers = [threading.Thread(target=worker) for _ in range(3)]
        killer = threading.Thread(target=forgetter)
        killer.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=30)
        stop.set()
        killer.join(timeout=5)
        assert state["max_active"] == 1

    def test_forget_unreferenced_entry_recycles_immediately(self):
        locks = PostingLockManager()
        with locks.hold(1):
            pass
        assert locks.live_locks == 1
        locks.forget(1)
        assert locks.live_locks == 0
        assert locks.lock_recycles == 1

    def test_forget_referenced_entry_recycles_at_last_unpin(self):
        locks = PostingLockManager()
        in_critical = threading.Event()
        release = threading.Event()

        def holder():
            with locks.hold(2):
                in_critical.set()
                release.wait(timeout=5)

        t = threading.Thread(target=holder)
        t.start()
        assert in_critical.wait(timeout=5)
        locks.forget(2)
        assert locks.live_locks == 1  # pinned by the holder, not dropped
        assert locks.lock_recycles == 0
        release.set()
        t.join(timeout=5)
        assert locks.live_locks == 0
        assert locks.lock_recycles == 1

    def test_forget_unknown_posting_is_noop(self):
        locks = PostingLockManager()
        locks.forget(12345)
        assert locks.lock_recycles == 0

    def test_recycles_reported_to_stats(self):
        from repro.core.stats import LireStats

        stats = LireStats()
        locks = PostingLockManager(stats=stats)
        with locks.hold(5):
            pass
        locks.forget(5)
        assert stats.lock_recycles == 1

    def test_chaos_hook_called_at_acquisition(self):
        points = []
        locks = PostingLockManager(chaos=lambda point, pid: points.append((point, pid)))
        with locks.hold(4, 9):
            pass
        assert ("lock.acquire", 4) in points
        assert ("lock.acquired", 9) in points


class TestBackgroundPipeline:
    @pytest.fixture
    def async_index(self, vectors, small_config):
        config = small_config.with_overrides(
            synchronous_rebuild=False, background_workers=2
        )
        index = SPFreshIndex.build(vectors, config=config)
        index.start()
        yield index
        index.stop()

    def test_background_splits_happen(self, async_index, rng):
        centroid = async_index.centroid_index.get(
            async_index.controller.posting_ids()[0]
        )
        for i in range(async_index.config.max_posting_size * 2):
            async_index.insert(
                90_000 + i,
                (centroid + rng.normal(scale=0.05, size=DIM)).astype(np.float32),
            )
        async_index.rebuilder.wait_idle()
        assert async_index.stats.splits >= 1

    def test_concurrent_updates_and_searches(self, async_index, rng, vectors):
        errors = []
        stop = threading.Event()

        def searcher():
            while not stop.is_set():
                try:
                    async_index.query(QueryRequest.single(vectors[0], k=5, nprobe=4))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=searcher) for _ in range(2)]
        for t in threads:
            t.start()
        inserted = []
        try:
            for i in range(300):
                vid = 95_000 + i
                async_index.insert(vid, rng.normal(size=DIM).astype(np.float32))
                inserted.append(vid)
                if i % 5 == 4:
                    async_index.delete(inserted.pop(0))
        finally:
            stop.set()
            for t in threads:
                t.join()
        async_index.rebuilder.wait_idle()
        assert not errors
        expected = set(range(len(vectors))) | set(inserted)
        assert_no_vector_lost(async_index, expected)

    def test_quality_converges_after_async_churn(self, async_index, rng):
        hot = async_index.centroid_index.get(
            async_index.controller.posting_ids()[0]
        )
        for i in range(250):
            async_index.insert(
                97_000 + i, (hot + rng.normal(scale=0.2, size=DIM)).astype(np.float32)
            )
        async_index.rebuilder.wait_idle()
        violations = npa_violations(async_index)
        assert len(violations) <= max(3, async_index.live_vector_count // 50)

    def test_background_reassign_moves_one_row_at_a_time(
        self, async_index, vectors, small_config
    ):
        """Inline a job lands its rows in one pass; a background worker
        routes and lands each row before the next. Either way each vector
        is routed once: the row of an id an earlier row moved is dropped
        before routing."""

        def reassign_lands(index):
            rows = []
            for i, pid in enumerate(index.controller.posting_ids()[:6]):
                # At a posting's centroid: the move lands there, no split.
                vid = 98_000 + i
                vector = index.centroid_index.get(pid).astype(np.float32)
                index.insert(vid, vector)
                rows.append((vid, vector))
            index.drain()
            # A source no row sits in: none is an NPA false positive. The
            # first id's second replica row goes stale when row 0 moves.
            job = reassign_batch(
                [
                    (vid, v, index.version_map.current_version(vid))
                    for vid, v in rows + rows[:1]
                ],
                source_posting=-1,
            )
            sizes, routed = [], []
            land, route_batch = index.writer.land, index.writer.route_batch

            def counting_land(rows, routes, replicas, cascade_depth, landing):
                if cascade_depth == 1:  # a reassign's landing
                    sizes.append(len(rows))
                return land(rows, routes, replicas, cascade_depth, landing)

            def counting_route_batch(vectors, replicas):
                routed.append(len(vectors))
                return route_batch(vectors, replicas)

            index.writer.land = counting_land
            index.writer.route_batch = counting_route_batch
            executed = index.stats.reassign_executed
            index.job_queue.put(job)
            index.drain()
            assert index.stats.reassign_executed - executed == 6
            assert sum(routed) == 6
            return sizes

        inline = SPFreshIndex.build(vectors, config=small_config)
        assert reassign_lands(inline) == [6]
        assert reassign_lands(async_index) == [1] * 6

    def test_stop_is_idempotent(self, async_index):
        async_index.stop()
        async_index.stop()

    def test_start_twice_is_noop(self, async_index):
        workers = len(async_index.rebuilder._workers)
        async_index.start()
        assert len(async_index.rebuilder._workers) == workers
