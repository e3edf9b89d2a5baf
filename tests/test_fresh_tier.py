"""Fresh-tier (LSM-style memory tier) test suite.

Covers the tier data structure, the buffered insert path, flush/LIRE
interaction, the differential oracle against :class:`FlatIndex`, the
hypothesis-pinned parity properties (flush invisibility, delete masking,
batch/single agreement), WAL-backed recovery into the tier, the
tier-aware invariants, and the ``dedup_top_k`` duplicate-in-one-posting
regression the tier work surfaced. See docs/fresh-tier.md.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import QueryRequest
from repro.baselines import FlatIndex
from repro.core.config import SPFreshConfig
from repro.core.fresh_tier import FreshTier
from repro.core.index import SPFreshIndex
from repro.core.updater import FRESH_INSERT_CPU_US
from repro.core.version_map import VersionMap
from repro.spann.postings import _exact_dedup_top_k, dedup_top_k
from repro.storage.snapshot import SnapshotManager
from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.storage.wal import WriteAheadLog
from repro.util.errors import StorageError
from tests.conftest import DIM

from .helpers import live_assignment

FULL_PROBE = 10**6


def _fresh_config(threshold: int = 10_000, **overrides) -> SPFreshConfig:
    base = dict(
        dim=DIM,
        max_posting_size=32,
        min_posting_size=3,
        build_target_posting_size=16,
        ssd_blocks=1 << 13,
        reassign_range=8,
        seed=7,
        enable_fresh_tier=True,
        fresh_flush_threshold=threshold,
        search_latency_budget_us=None,
    )
    base.update(overrides)
    return SPFreshConfig(**base).validate()


def _clustered(n: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=6.0, size=(4, DIM)).astype(np.float32)
    assignment = rng.integers(0, 4, size=n)
    return (centers[assignment] + rng.normal(scale=0.5, size=(n, DIM))).astype(
        np.float32
    )


@pytest.fixture
def fresh_index(vectors):
    """Fresh-tier index over the shared clustered vectors, no auto flush."""
    return SPFreshIndex.build(vectors, config=_fresh_config())


# ----------------------------------------------------------------------
# the tier data structure
# ----------------------------------------------------------------------
class TestFreshTierUnit:
    def test_add_and_lookup(self):
        tier = FreshTier(DIM)
        vec = np.arange(DIM, dtype=np.float32)
        tier.add(7, vec, 3)
        assert len(tier) == 1
        assert 7 in tier
        assert 8 not in tier
        assert tier.version_of(7) == 3
        ids, versions, matrix = tier.entries()
        np.testing.assert_array_equal(ids, [7])
        np.testing.assert_array_equal(versions, [3])
        np.testing.assert_array_equal(matrix[0], vec)

    def test_add_overwrites_existing_row(self):
        tier = FreshTier(DIM)
        tier.add(7, np.zeros(DIM, dtype=np.float32), 0)
        tier.add(7, np.ones(DIM, dtype=np.float32), 1)
        assert len(tier) == 1
        assert tier.version_of(7) == 1
        _, _, matrix = tier.entries()
        np.testing.assert_array_equal(matrix[0], np.ones(DIM))

    def test_discard_swaps_with_last(self):
        tier = FreshTier(DIM)
        for vid in range(5):
            tier.add(vid, np.full(DIM, vid, dtype=np.float32), 0)
        assert tier.discard(2)
        assert not tier.discard(2)
        assert len(tier) == 4
        ids, _, matrix = tier.entries()
        assert set(ids) == {0, 1, 3, 4}
        for row, vid in enumerate(ids):
            np.testing.assert_array_equal(matrix[row], np.full(DIM, vid))

    def test_growth_beyond_initial_capacity(self):
        tier = FreshTier(DIM)
        for vid in range(100):
            tier.add(vid, np.full(DIM, vid, dtype=np.float32), 0)
        assert len(tier) == 100
        ids, _, matrix = tier.entries()
        for row, vid in enumerate(ids):
            np.testing.assert_array_equal(matrix[row], np.full(DIM, int(vid)))

    def test_clear_and_memory(self):
        tier = FreshTier(DIM)
        assert tier.memory_bytes() > 0
        tier.add(1, np.zeros(DIM, dtype=np.float32), 0)
        tier.clear()
        assert len(tier) == 0
        assert 1 not in tier

    def test_take_is_non_destructive(self):
        tier = FreshTier(DIM)
        for vid in range(6):
            tier.add(vid, np.full(DIM, vid, dtype=np.float32), 0)
        ids, versions, matrix = tier.take(4)
        np.testing.assert_array_equal(ids, [0, 1, 2, 3])  # array order
        assert versions.dtype == np.uint8 and len(versions) == 4
        assert matrix.shape == (4, DIM) and matrix.dtype == np.float32
        assert len(tier) == 6  # flush discards only after a durable append
        assert all(len(column) == 6 for column in tier.take(None))
        matrix[:] = -1.0  # columns are copies: the tier's rows are untouched
        np.testing.assert_array_equal(tier.take(1)[2][0], np.zeros(DIM))

    def test_live_snapshot_masks_deleted_rows(self):
        vmap = VersionMap()
        tier = FreshTier(DIM, vmap)
        for vid in (1, 2):
            vmap.register(vid)
            tier.add(vid, np.full(DIM, vid, dtype=np.float32), 0)
        vmap.delete(1)
        ids, matrix = tier.live_snapshot()
        np.testing.assert_array_equal(ids, [2])
        np.testing.assert_array_equal(matrix[0], np.full(DIM, 2))

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            FreshTier(0)


# ----------------------------------------------------------------------
# the buffered insert path
# ----------------------------------------------------------------------
class TestInsertPath:
    def test_insert_lands_in_tier_not_on_disk(self, fresh_index, rng):
        sizes_before = fresh_index.posting_sizes().sum()
        latency = fresh_index.insert(9000, rng.normal(size=DIM).astype(np.float32))
        assert latency == FRESH_INSERT_CPU_US
        assert len(fresh_index.fresh_tier) == 1
        assert 9000 in fresh_index.fresh_tier
        assert fresh_index.posting_sizes().sum() == sizes_before
        assert 9000 not in live_assignment(fresh_index)
        assert fresh_index.stats.fresh_inserts == 1

    def test_tier_resident_vector_is_searchable(self, fresh_index, rng):
        vec = rng.normal(size=DIM).astype(np.float32)
        fresh_index.insert(9001, vec)
        result = fresh_index.query(QueryRequest.single(vec, k=1, nprobe=FULL_PROBE)).result
        assert int(result.ids[0]) == 9001
        assert result.distances[0] == 0.0
        assert result.fresh_entries_scanned >= 1

    def test_threshold_triggers_flush(self, vectors, rng):
        index = SPFreshIndex.build(vectors, config=_fresh_config(threshold=16))
        for i in range(16):
            index.insert(9100 + i, rng.normal(size=DIM).astype(np.float32))
        index.drain()
        assert index.stats.fresh_flushes >= 1
        assert index.stats.fresh_flushed_vectors == 16
        assert len(index.fresh_tier) == 0
        assignment = live_assignment(index)
        for i in range(16):
            assert 9100 + i in assignment

    def test_flush_groups_appends(self, vectors, rng):
        # One grouped append per destination posting, not one per vector.
        index = SPFreshIndex.build(vectors, config=_fresh_config())
        for i in range(32):
            index.insert(9200 + i, vectors[i] + 0.01)
        flushed = index.flush_fresh_tier()
        assert flushed == 32
        assert 0 < index.stats.fresh_flush_appends < 32

    def test_failed_flush_counts_what_landed(self, vectors):
        # The device refuses the flush's second append: the first one's rows
        # left the tier and are counted, the others stay buffered.
        index = SPFreshIndex.build(vectors, config=_fresh_config())
        for i in range(32):
            index.insert(9200 + i, vectors[i] + 0.01)
        append, landed = index.controller.append, []

        def refuse_second(pid, rows):
            if landed:
                raise StorageError("injected: device refused the append")
            landed.append(len(rows))
            return append(pid, rows)

        before, io_before = index.stats.snapshot(), index.rebuilder.background_io_us
        index.controller.append = refuse_second
        with pytest.raises(StorageError):
            index.flush_fresh_tier()
        index.controller.append = append
        delta = index.stats.snapshot().delta(before)
        assert delta.fresh_flushed_vectors == delta.appends == landed[0]
        assert delta.fresh_flush_appends == delta.fresh_flushes == 1
        assert len(index.fresh_tier) == 32 - landed[0]
        assert index.rebuilder.background_io_us > io_before

    def test_delete_before_flush_never_reaches_disk(self, fresh_index, rng):
        vec = rng.normal(size=DIM).astype(np.float32)
        writes_before = fresh_index.ssd.stats.snapshot().block_writes
        fresh_index.insert(9002, vec)
        fresh_index.delete(9002)
        assert len(fresh_index.fresh_tier) == 0
        assert fresh_index.stats.fresh_discards == 1
        fresh_index.flush_fresh_tier()
        assert 9002 not in live_assignment(fresh_index)
        assert fresh_index.ssd.stats.snapshot().block_writes == writes_before
        result = fresh_index.query(QueryRequest.single(vec, k=5, nprobe=FULL_PROBE)).result
        assert 9002 not in set(map(int, result.ids))

    def test_delete_masks_flushed_duplicate(self, fresh_index, rng):
        vec = rng.normal(size=DIM).astype(np.float32)
        fresh_index.insert(9003, vec)
        fresh_index.flush_fresh_tier()
        assert 9003 in live_assignment(fresh_index)
        fresh_index.delete(9003)
        result = fresh_index.query(QueryRequest.single(vec, k=5, nprobe=FULL_PROBE)).result
        assert 9003 not in set(map(int, result.ids))

    def test_insert_logs_to_wal_before_ack(self, vectors, rng):
        wal = WriteAheadLog()
        index = SPFreshIndex.build(vectors, config=_fresh_config(), wal=wal)
        records_before = wal.record_count
        index.insert(9004, rng.normal(size=DIM).astype(np.float32))
        assert wal.record_count == records_before + 1
        assert 9004 in index.fresh_tier  # buffered, not on disk — WAL is
        # the only durable record of the ack.

    def test_checkpoint_flushes_tier_then_truncates_wal(self, vectors, rng):
        cfg = _fresh_config()
        wal = WriteAheadLog()
        snapshots = SnapshotManager()
        ssd = SimulatedSSD(cfg.ssd_blocks, SSDProfile(block_size=cfg.block_size))
        index = SPFreshIndex.build(
            vectors, config=cfg, wal=wal, snapshots=snapshots, device=ssd
        )
        for i in range(8):
            index.insert(9300 + i, rng.normal(size=DIM).astype(np.float32))
        index.checkpoint()
        assert len(index.fresh_tier) == 0
        assert wal.record_count == 0
        assignment = live_assignment(index)
        for i in range(8):
            assert 9300 + i in assignment

    def test_memory_bytes_includes_tier(self, fresh_index, rng):
        before = fresh_index.memory_bytes()
        for i in range(64):
            fresh_index.insert(9400 + i, rng.normal(size=DIM).astype(np.float32))
        assert fresh_index.memory_bytes() > before


# ----------------------------------------------------------------------
# age-based flush trigger (fresh_max_age_ops)
# ----------------------------------------------------------------------
class TestAgeFlush:
    def test_trickle_flushes_at_age_bound(self, vectors, rng):
        # Far below the size threshold, the op-count clock still forces
        # the buffered batch out after fresh_max_age_ops foreground ops.
        index = SPFreshIndex.build(
            vectors, config=_fresh_config(threshold=10_000, fresh_max_age_ops=5)
        )
        for i in range(4):
            index.insert(9500 + i, rng.normal(size=DIM).astype(np.float32))
        assert len(index.fresh_tier) == 4  # ages 1..4: not yet
        index.insert(9504, rng.normal(size=DIM).astype(np.float32))
        index.drain()
        assert index.stats.fresh_flushes >= 1
        assert len(index.fresh_tier) == 0
        assignment = live_assignment(index)
        for i in range(5):
            assert 9500 + i in assignment

    def test_deletes_count_toward_age(self, vectors, rng):
        index = SPFreshIndex.build(
            vectors, config=_fresh_config(threshold=10_000, fresh_max_age_ops=4)
        )
        index.insert(9510, rng.normal(size=DIM).astype(np.float32))
        # Deletes of disk-resident ids age the buffered batch too.
        for vid in (0, 1, 2):
            index.delete(vid)
        index.drain()
        assert index.stats.fresh_flushes >= 1
        assert len(index.fresh_tier) == 0
        assert 9510 in live_assignment(index)

    def test_age_clock_restarts_per_batch(self, vectors, rng):
        index = SPFreshIndex.build(
            vectors, config=_fresh_config(threshold=10_000, fresh_max_age_ops=6)
        )
        for i in range(6):
            index.insert(9520 + i, rng.normal(size=DIM).astype(np.float32))
        index.drain()
        assert index.stats.fresh_flushes == 1
        # A new batch gets a fresh clock: 5 more ops stay buffered.
        for i in range(5):
            index.insert(9530 + i, rng.normal(size=DIM).astype(np.float32))
        index.drain()
        assert index.stats.fresh_flushes == 1
        assert len(index.fresh_tier) == 5

    def test_disabled_by_default(self, vectors, rng):
        index = SPFreshIndex.build(vectors, config=_fresh_config())
        assert index.config.fresh_max_age_ops is None
        for i in range(50):
            index.insert(9540 + i, rng.normal(size=DIM).astype(np.float32))
            index.delete(9540 + i)
        index.insert(9999, rng.normal(size=DIM).astype(np.float32))
        for vid in range(20):
            index.delete(int(vid))
        index.drain()
        # No age trigger, under the size threshold: still buffered.
        assert index.stats.fresh_flushes == 0
        assert 9999 in index.fresh_tier

    def test_empty_tier_does_not_age(self, vectors):
        index = SPFreshIndex.build(
            vectors, config=_fresh_config(threshold=10_000, fresh_max_age_ops=2)
        )
        # Deletes with nothing buffered never enqueue a flush.
        for vid in range(10):
            index.delete(int(vid))
        index.drain()
        assert index.stats.fresh_flushes == 0


# ----------------------------------------------------------------------
# differential oracle: FlatIndex in lockstep
# ----------------------------------------------------------------------
class TestDifferentialOracle:
    STEPS = 180

    def _check_search(self, index, oracle, query, k):
        want_ids, want_dists = oracle.search(query, k)
        result = index.query(QueryRequest.single(query, k=k, nprobe=FULL_PROBE)).result
        assert set(map(int, result.ids)) == set(map(int, want_ids))
        np.testing.assert_array_equal(result.distances, want_dists)

    def test_lockstep_interleaving_with_mid_flush_states(self):
        base = _clustered(120)
        index = SPFreshIndex.build(base, config=_fresh_config())
        oracle = FlatIndex(DIM)
        for vid, vec in enumerate(base):
            oracle.insert(vid, vec)

        rng = np.random.default_rng(42)
        live = list(range(len(base)))
        next_vid = 5000
        for step in range(self.STEPS):
            roll = rng.random()
            if roll < 0.45:
                vec = rng.normal(scale=3.0, size=DIM).astype(np.float32)
                index.insert(next_vid, vec)
                oracle.insert(next_vid, vec)
                live.append(next_vid)
                next_vid += 1
            elif roll < 0.65 and live:
                victim = live.pop(int(rng.integers(len(live))))
                index.delete(victim)
                oracle.delete(victim)
            else:
                query = rng.normal(scale=3.0, size=DIM).astype(np.float32)
                self._check_search(index, oracle, query, 8)
            if step % 23 == 11:
                # Partial flush parks the index mid-flush: some rows moved
                # to postings, the rest still tier-resident.
                index.flush_fresh_tier(max_vectors=3)
                query = rng.normal(scale=3.0, size=DIM).astype(np.float32)
                self._check_search(index, oracle, query, 8)
        # Final drain and a last sweep from live vectors themselves.
        index.flush_fresh_tier()
        index.drain()
        assert index.check_invariants().ok
        for vid in live[:10]:
            # Perturbed live vectors probe the near-duplicate regime.
            query = oracle._vectors[vid] + np.float32(0.01)
            self._check_search(index, oracle, query, 8)


# ----------------------------------------------------------------------
# hypothesis-pinned parity properties
# ----------------------------------------------------------------------
class TestParityProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_flush_is_invisible_to_search(self, seed):
        """Tier-merged search is bit-identical to the eagerly-flushed index."""
        index = SPFreshIndex.build(_clustered(60), config=_fresh_config())
        rng = np.random.default_rng(seed)
        for i in range(int(rng.integers(1, 40))):
            index.insert(7000 + i, rng.normal(scale=3.0, size=DIM).astype(np.float32))
        queries = rng.normal(scale=3.0, size=(6, DIM)).astype(np.float32)
        pre = [index.query(QueryRequest.single(q, k=5, nprobe=FULL_PROBE)).result for q in queries]
        assert index.flush_fresh_tier() > 0
        post = [index.query(QueryRequest.single(q, k=5, nprobe=FULL_PROBE)).result for q in queries]
        for p, q in zip(pre, post):
            np.testing.assert_array_equal(p.ids, q.ids)
            np.testing.assert_array_equal(p.distances, q.distances)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_deleted_ids_never_surface(self, seed):
        """Deletes mask both tier-resident rows and flushed disk duplicates."""
        index = SPFreshIndex.build(_clustered(60), config=_fresh_config())
        rng = np.random.default_rng(seed)
        inserted = []
        for i in range(24):
            vec = rng.normal(scale=3.0, size=DIM).astype(np.float32)
            index.insert(7100 + i, vec)
            inserted.append((7100 + i, vec))
        # Flush half, so victims span disk-resident and tier-resident rows.
        index.flush_fresh_tier(max_vectors=12)
        picks = rng.choice(len(inserted), size=8, replace=False)
        for pick in picks:
            index.delete(inserted[pick][0])
        victims = {inserted[pick][0] for pick in picks}
        for pick in picks:
            vid, vec = inserted[pick]
            result = index.query(QueryRequest.single(vec, k=10, nprobe=FULL_PROBE)).result
            assert not victims & set(map(int, result.ids))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_batch_single_parity_with_resident_tier(self, seed):
        index = SPFreshIndex.build(_clustered(60), config=_fresh_config())
        rng = np.random.default_rng(seed)
        for i in range(int(rng.integers(1, 30))):
            index.insert(7200 + i, rng.normal(scale=3.0, size=DIM).astype(np.float32))
        assert len(index.fresh_tier) > 0
        queries = rng.normal(scale=3.0, size=(5, DIM)).astype(np.float32)
        singles = [
            index.query(QueryRequest.single(q, k=5, nprobe=FULL_PROBE)).result
            for q in queries
        ]
        batched = index.query(QueryRequest(vectors=queries, k=5, nprobe=FULL_PROBE)).results
        for s, b in zip(singles, batched):
            np.testing.assert_array_equal(s.ids, b.ids)
            np.testing.assert_array_equal(s.distances, b.distances)
            assert s.fresh_entries_scanned == b.fresh_entries_scanned


# ----------------------------------------------------------------------
# durability: WAL replay lands acked inserts back in the tier
# ----------------------------------------------------------------------
class TestRecoveryIntoTier:
    def test_acked_unflushed_inserts_recover_into_tier(self, rng):
        cfg = _fresh_config()
        ssd = SimulatedSSD(cfg.ssd_blocks, SSDProfile(block_size=cfg.block_size))
        wal = WriteAheadLog()
        snapshots = SnapshotManager()
        index = SPFreshIndex.build(
            _clustered(60), config=cfg, wal=wal, snapshots=snapshots, device=ssd
        )
        index.checkpoint()
        fresh = {
            8000 + i: rng.normal(scale=3.0, size=DIM).astype(np.float32)
            for i in range(12)
        }
        for vid, vec in fresh.items():
            index.insert(vid, vec)
        assert len(index.fresh_tier) == 12  # acked but never flushed

        # "Process restart": recover from durable state only.
        recovered = SPFreshIndex.recover(ssd, cfg, snapshots, wal=wal)
        assert recovered.last_recovery.records_in_fresh_tier == 12
        assert "fresh tier" in recovered.last_recovery.summary()
        for vid, vec in fresh.items():
            assert vid in recovered.fresh_tier
            result = recovered.query(QueryRequest.single(vec, k=1, nprobe=FULL_PROBE)).result
            assert int(result.ids[0]) == vid
        assert recovered.check_invariants().ok


# ----------------------------------------------------------------------
# tier-aware invariants
# ----------------------------------------------------------------------
class TestTierInvariants:
    def test_tier_resident_vectors_are_not_lost(self, fresh_index, rng):
        for i in range(10):
            fresh_index.insert(9500 + i, rng.normal(size=DIM).astype(np.float32))
        report = fresh_index.check_invariants()
        assert report.ok, report.failures
        assert report.fresh_tier_vectors == 10

    def test_stale_tier_row_is_flagged(self, fresh_index, rng):
        vec = rng.normal(size=DIM).astype(np.float32)
        fresh_index.insert(9600, vec)
        # Tombstone the id behind the tier's back: the row is now stale
        # and the hygiene check must catch it.
        fresh_index.version_map.delete(9600)
        report = fresh_index.check_invariants()
        assert not report.ok
        assert report.stale_tier_entries == [9600]

    def test_mid_flush_state_passes_conservation(self, fresh_index, rng):
        for i in range(20):
            fresh_index.insert(9700 + i, rng.normal(size=DIM).astype(np.float32))
        fresh_index.flush_fresh_tier(max_vectors=7)
        report = fresh_index.check_invariants()
        assert report.ok, report.failures
        # Some vectors on disk, the rest tier-resident; none lost.
        assert report.fresh_tier_vectors == 13


# ----------------------------------------------------------------------
# regression: duplicate live replicas of one id inside a single posting
# ----------------------------------------------------------------------
class TestDedupTopKDuplicateRegression:
    def test_capped_prefilter_falls_back_when_ids_collide(self):
        # A merge can co-locate two live boundary replicas of one id in a
        # single posting, so `max_dup` (the searcher passes the number of
        # candidate arrays) undercounts and the capped prefix can span
        # fewer than k unique ids. The fallback must recover the exact
        # answer instead of returning a short/incomplete top-k.
        ids = np.array([21, 21, 12, 26, 30, 32], dtype=np.int64)
        dists = np.array([0.1, 0.1, 0.2, 0.3, 0.4, 0.5], dtype=np.float32)
        got_ids, got_dists = dedup_top_k(ids, dists, 5, max_dup=1)
        want_ids, want_dists = _exact_dedup_top_k(ids, dists, 5)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_dists, want_dists)
        assert set(got_ids) == {21, 12, 26, 30, 32}

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        max_dup=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_capped_matches_uncapped_exactly(self, seed, max_dup, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        ids = rng.integers(0, 20, size=n).astype(np.int64)
        dists = rng.random(n).astype(np.float32)
        got_ids, got_dists = dedup_top_k(ids, dists, k, max_dup=max_dup)
        want_ids, want_dists = _exact_dedup_top_k(ids, dists, k)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_dists, want_dists)
