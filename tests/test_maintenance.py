"""Tests for the proactive maintenance scanner."""

import numpy as np
import pytest

from repro.core.maintenance import MaintenanceScanner, ScanReport
from tests.conftest import DIM


class TestScanReport:
    def test_jobs_scheduled_sum(self):
        report = ScanReport(merges_scheduled=2, splits_scheduled=3)
        assert report.jobs_scheduled == 5


class TestScanner:
    def test_invalid_threshold(self, built_index):
        with pytest.raises(ValueError):
            MaintenanceScanner(built_index, garbage_threshold=0.0)
        with pytest.raises(ValueError):
            MaintenanceScanner(built_index, garbage_threshold=1.5)

    def test_clean_index_schedules_nothing(self, built_index):
        report = MaintenanceScanner(built_index).scan()
        assert report.splits_scheduled == 0
        assert report.gc_rewrites == 0
        assert report.postings_scanned == built_index.num_postings

    def test_detects_undersized_postings(self, built_index):
        # Carve a posting down below the merge threshold.
        pid = max(
            built_index.controller.posting_ids(),
            key=built_index.controller.length,
        )
        data, _ = built_index.controller.get(pid)
        for vid in data.ids[: len(data) - 1]:
            built_index.version_map.delete(int(vid))
        report = MaintenanceScanner(built_index).scan(drain=False)
        assert report.merges_scheduled + report.gc_rewrites >= 1

    def test_gc_rewrites_garbage_heavy_posting(self, built_index, vectors):
        for vid in range(len(vectors) // 2):
            built_index.delete(vid)
        entries_before = built_index.controller.total_entries()
        report = MaintenanceScanner(built_index, garbage_threshold=0.3).scan()
        assert report.gc_rewrites >= 1
        assert built_index.controller.total_entries() < entries_before

    def test_gc_rewrite_keeps_an_append_that_raced_the_scan(self, built_index):
        """The scanner reads a posting unlocked, then rewrites it under the
        lock: an insert landing in between must survive the rewrite."""
        index = built_index
        pid = max(index.controller.posting_ids(), key=index.controller.length)
        data, _ = index.controller.get(pid)
        # Garbage-heavy, yet neither undersized (merge) nor oversized (split).
        for vid in data.ids[: len(data) - index.config.min_posting_size]:
            index.delete(int(vid))
        centroid = index.centroid_index.get(pid).astype(np.float32)
        real_hold = index.locks.hold
        raced = []

        def hold_after_a_racing_insert(*pids):
            if pids == (pid,) and not raced:
                raced.append(pid)
                index.updater.insert(9999, centroid)  # takes and drops the lock
            return real_hold(*pids)

        index.locks.hold = hold_after_a_racing_insert
        report = MaintenanceScanner(index).scan(drain=False)
        index.locks.hold = real_hold
        # (boundary replicas of the deleted ids make a few neighbours heavy too)
        assert raced == [pid] and report.gc_rewrites >= 1
        rewritten, _ = index.controller.get(pid)
        assert 9999 in rewritten.ids
        assert len(rewritten) == index.config.min_posting_size + 1
        assert index.check_invariants().lost_vectors == []

    def test_max_postings_bound(self, built_index):
        report = MaintenanceScanner(built_index).scan(max_postings=3)
        assert report.postings_scanned == 3

    def test_dead_entries_counted(self, built_index, vectors):
        for vid in range(25):
            built_index.delete(vid)
        report = MaintenanceScanner(built_index).scan(drain=False)
        assert report.dead_entries_seen >= 25

    def test_drain_runs_scheduled_jobs(self, built_index, rng):
        # Leave an oversized posting behind by bypassing the updater.
        from repro.storage.layout import PostingData

        pid = built_index.controller.posting_ids()[0]
        extra = built_index.config.max_posting_size + 5
        ids = np.arange(80_000, 80_000 + extra)
        for vid in ids:
            built_index.version_map.register(int(vid))
        built_index.controller.append(
            pid,
            PostingData.from_rows(
                ids,
                np.zeros(extra, dtype=np.uint8),
                rng.normal(size=(extra, DIM)).astype(np.float32),
            ),
        )
        splits_before = built_index.stats.splits
        report = MaintenanceScanner(built_index).scan()
        assert report.splits_scheduled >= 1
        assert built_index.stats.splits > splits_before
