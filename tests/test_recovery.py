"""Crash-recovery tests: snapshot + WAL replay reproduce the live set."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex
from repro.storage.snapshot import SnapshotManager
from repro.storage.wal import WriteAheadLog
from repro.util.errors import IndexError_, RecoveryError
from tests.conftest import DIM
from tests.helpers import live_assignment


def build_with_recovery(vectors, config, tmp_path=None):
    wal = WriteAheadLog(None if tmp_path is None else str(tmp_path / "u.wal"))
    snapshots = SnapshotManager(None if tmp_path is None else str(tmp_path))
    index = SPFreshIndex.build(vectors, config=config, wal=wal, snapshots=snapshots)
    return index, wal, snapshots


def crash_and_recover(index, wal, snapshots):
    """Simulate a crash: drop every in-memory structure, keep the device."""
    return SPFreshIndex.recover(index.ssd, index.config, snapshots, wal=wal)


class TestBasicRecovery:
    def test_snapshot_then_recover_identical(self, vectors, small_config):
        index, wal, snaps = build_with_recovery(vectors, small_config)
        index.checkpoint()
        recovered = crash_and_recover(index, wal, snaps)
        assert recovered.live_vector_count == index.live_vector_count
        assert recovered.num_postings == index.num_postings
        assert live_assignment(recovered) == live_assignment(index)

    def test_recover_without_snapshot_fails(self, vectors, small_config):
        index, wal, snaps = build_with_recovery(vectors, small_config)
        with pytest.raises(RecoveryError):
            crash_and_recover(index, wal, snaps)

    def test_dim_mismatch_rejected(self, vectors, small_config):
        index, wal, snaps = build_with_recovery(vectors, small_config)
        index.checkpoint()
        bad_config = small_config.with_overrides(dim=DIM + 1)
        with pytest.raises(RecoveryError):
            SPFreshIndex.recover(index.ssd, bad_config, snaps, wal=wal)


class TestWalReplay:
    def test_updates_after_snapshot_replayed(self, vectors, small_config, rng):
        index, wal, snaps = build_with_recovery(vectors, small_config)
        index.checkpoint()
        inserted = {}
        for i in range(20):
            vid = 40_000 + i
            vec = rng.normal(size=DIM).astype(np.float32)
            index.insert(vid, vec)
            inserted[vid] = vec
        for vid in range(5):
            index.delete(vid)

        recovered = crash_and_recover(index, wal, snaps)
        assert recovered.live_vector_count == index.live_vector_count
        for vid, vec in inserted.items():
            result = recovered.query(
                QueryRequest.single(vec, k=1, nprobe=recovered.num_postings)
            ).result
            assert result.ids[0] == vid
        for vid in range(5):
            assert recovered.version_map.is_deleted(vid)

    @pytest.mark.parametrize("fresh_tier", [False, True])
    def test_rejected_insert_leaves_no_record(
        self, vectors, small_config, rng, fresh_tier
    ):
        """An insert the caller saw fail was never logged: the WAL does not
        grow and the next recovery has nothing to fail on."""
        config = small_config.with_overrides(enable_fresh_tier=fresh_tier)
        index, wal, snaps = build_with_recovery(vectors, config)
        index.checkpoint()
        vec = rng.normal(size=DIM).astype(np.float32)
        index.insert(40_000, vec)
        records, size = wal.record_count, wal.size_bytes()
        for rejected in (-1, 0, 40_000):  # negative, live since build, live now
            with pytest.raises(IndexError_):
                index.insert(rejected, vec)
        with pytest.raises(ValueError):
            index.insert_batch(np.arange(50_000, 50_003), np.tile(vec, (5, 1)))
        assert (wal.record_count, wal.size_bytes()) == (records, size)
        recovered = crash_and_recover(index, wal, snaps)
        report = recovered.last_recovery
        assert report.clean and report.records_failed == 0, report.summary()
        assert (report.records_replayed, report.records_skipped) == (1, 0)

    def test_search_results_match_after_recovery(self, vectors, small_config, rng):
        index, wal, snaps = build_with_recovery(vectors, small_config)
        index.checkpoint()
        for i in range(30):
            index.insert(41_000 + i, rng.normal(size=DIM).astype(np.float32))
        index.delete(3)
        # Capture expected answers BEFORE recovery: replay writes to the
        # shared device, so the pre-crash object is dead afterwards (as a
        # crashed process's in-memory index would be).
        expected = [
            set(map(int, index.query(
                QueryRequest.single(q, k=10, nprobe=index.num_postings)
            ).ids))
            for q in vectors[:10]
        ]
        recovered = crash_and_recover(index, wal, snaps)
        for q, want in zip(vectors[:10], expected):
            got = recovered.query(
                QueryRequest.single(q, k=10, nprobe=recovered.num_postings)
            ).result
            assert set(map(int, got.ids)) == want

    def test_checkpoint_truncates_wal(self, vectors, small_config, rng):
        index, wal, snaps = build_with_recovery(vectors, small_config)
        index.insert(50_000, rng.normal(size=DIM).astype(np.float32))
        assert wal.record_count == 1
        index.checkpoint()
        assert wal.record_count == 0

    def test_recovery_with_splits_in_window(self, vectors, small_config, rng):
        """Splits between snapshot and crash are re-derived by replay."""
        index, wal, snaps = build_with_recovery(vectors, small_config)
        index.checkpoint()
        centroid = index.centroid_index.get(index.controller.posting_ids()[0])
        for i in range(small_config.max_posting_size + 20):
            index.insert(
                60_000 + i,
                (centroid + rng.normal(scale=0.05, size=DIM)).astype(np.float32),
            )
        assert index.stats.splits > 0
        # Capture the expected live set BEFORE recovery mutates the shared
        # device (the crashed process's in-memory index is gone afterwards).
        expected = sorted(live_assignment(index))
        live_count = index.live_vector_count
        recovered = crash_and_recover(index, wal, snaps)
        assert recovered.live_vector_count == live_count
        # Posting geometry need not be identical, but nothing may be lost.
        from tests.helpers import assert_no_vector_lost

        assert_no_vector_lost(recovered, expected)


class TestRecoveryReport:
    """`index.last_recovery` and the mirrored stats counters."""

    def test_clean_recovery_report(self, vectors, small_config, rng):
        index, wal, snaps = build_with_recovery(vectors, small_config)
        index.checkpoint()
        for i in range(6):
            index.insert(45_000 + i, rng.normal(size=DIM).astype(np.float32))
        index.delete(0)
        recovered = crash_and_recover(index, wal, snaps)
        report = recovered.last_recovery
        assert report is not None
        assert report.clean
        assert report.snapshot_generation == 1
        assert report.records_replayed == 7
        assert report.records_quarantined == 0
        assert "7 WAL records replayed" in report.summary()
        assert recovered.stats.recoveries == 1
        assert recovered.stats.wal_records_replayed == 7
        assert recovered.stats.wal_records_quarantined == 0

    def test_fresh_index_has_no_recovery_report(self, vectors, small_config):
        index, _, _ = build_with_recovery(vectors, small_config)
        assert index.last_recovery is None
        assert index.stats.recoveries == 0

    def test_quarantined_records_surface_in_report(self, vectors, small_config, rng):
        index, wal, snaps = build_with_recovery(vectors, small_config)
        index.checkpoint()
        for i in range(4):
            index.insert(46_000 + i, rng.normal(size=DIM).astype(np.float32))
        # Corrupt the second logged record in place, as a bad sector would.
        stream = bytearray(wal.to_bytes())
        frame = len(stream) // 4
        stream[frame + frame // 2] ^= 0x10
        wal.load_bytes(bytes(stream))

        recovered = crash_and_recover(index, wal, snaps)
        report = recovered.last_recovery
        assert not report.clean
        assert report.records_replayed == 3
        assert report.records_quarantined == 1
        assert report.bytes_quarantined > 0
        assert recovered.stats.wal_records_quarantined == 1
        # The three undamaged inserts survived.
        live = set(live_assignment(recovered))
        assert len({46_000, 46_001, 46_002, 46_003} & live) == 3

    def test_snapshot_live_inserts_counted_as_skips(self, vectors, small_config, rng):
        index, wal, snaps = build_with_recovery(vectors, small_config)
        index.insert(47_000, rng.normal(size=DIM).astype(np.float32))
        index.checkpoint()
        # Stale WAL scenario: the record was logged before the checkpoint
        # but the truncate was lost (e.g. crash-after-commit). Replaying it
        # against the snapshot that already contains it must skip, not dup.
        wal.log_insert(47_000, rng.normal(size=DIM).astype(np.float32))
        recovered = crash_and_recover(index, wal, snaps)
        assert recovered.last_recovery.records_skipped == 1
        assert recovered.last_recovery.records_replayed == 0
        assert recovered.stats.wal_records_skipped == 1

    def test_torn_tail_reported(self, vectors, small_config, rng):
        index, wal, snaps = build_with_recovery(vectors, small_config)
        index.checkpoint()
        index.insert(48_000, rng.normal(size=DIM).astype(np.float32))
        index.insert(48_001, rng.normal(size=DIM).astype(np.float32))
        stream = wal.to_bytes()
        wal.load_bytes(stream[: len(stream) - 7])  # crash mid-append
        recovered = crash_and_recover(index, wal, snaps)
        assert recovered.last_recovery.torn_tail_bytes > 0
        assert recovered.last_recovery.records_replayed == 1
        live = set(live_assignment(recovered))
        assert 48_000 in live
        assert 48_001 not in live  # never acknowledged durably


class TestFileBackedRecovery:
    def test_full_cycle_on_disk(self, vectors, small_config, tmp_path, rng):
        index, wal, snaps = build_with_recovery(vectors, small_config, tmp_path)
        index.checkpoint()
        index.insert(70_000, rng.normal(size=DIM).astype(np.float32))
        wal.close()

        # Reopen persistence from disk, as a restarted process would.
        wal2 = WriteAheadLog(str(tmp_path / "u.wal"))
        snaps2 = SnapshotManager(str(tmp_path))
        recovered = SPFreshIndex.recover(index.ssd, index.config, snaps2, wal=wal2)
        assert recovered.version_map.is_registered(70_000)
        assert recovered.live_vector_count == index.live_vector_count

    def test_second_checkpoint_supersedes_first(self, vectors, small_config, tmp_path, rng):
        index, wal, snaps = build_with_recovery(vectors, small_config, tmp_path)
        index.checkpoint()
        index.insert(71_000, rng.normal(size=DIM).astype(np.float32))
        index.checkpoint()
        recovered = crash_and_recover(index, wal, snaps)
        assert recovered.version_map.is_registered(71_000)
