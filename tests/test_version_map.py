"""Tests for the version map: registration, tombstones, CAS, batch masks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.version_map import VERSION_MASK, VersionMap
from repro.util.errors import IndexError_


class TestRegistration:
    def test_register_and_query(self):
        vm = VersionMap()
        assert not vm.is_registered(5)
        assert vm.register(5) == 0
        assert vm.is_registered(5)
        assert vm.current_version(5) == 0
        assert not vm.is_deleted(5)

    def test_double_register_live_fails(self):
        vm = VersionMap()
        vm.register(1)
        with pytest.raises(IndexError_):
            vm.register(1)

    def test_check_registrable_is_registers_own_verdict(self):
        vm = VersionMap(initial_capacity=4)
        vm.register(1)
        vm.register(2)
        vm.delete(2)
        for vid in (0, 2, 3, 10**6):  # unseen, tombstoned, beyond capacity
            vm.check_registrable(vid)  # no error, and nothing registered
        assert vm.live_count == 1 and not vm.is_registered(10**6)
        for vid in (-1, 1):
            with pytest.raises(IndexError_):
                vm.check_registrable(vid)

    def test_negative_id_rejected(self):
        with pytest.raises(IndexError_):
            VersionMap().register(-1)

    def test_capacity_growth(self):
        vm = VersionMap(initial_capacity=4)
        vm.register(10_000)
        assert vm.is_registered(10_000)
        assert vm.live_count == 1

    def test_reinsert_after_delete_continues_version(self):
        """A re-inserted id must not revive replicas (or queued reassign
        rows) of its earlier incarnation: it continues one version past
        the tombstoned one instead of restarting at 0."""
        vm = VersionMap()
        vm.register(3)
        vm.cas_bump(3, 0)
        vm.delete(3)
        assert vm.register(3) == 2
        assert vm.current_version(3) == 2
        assert not vm.is_deleted(3)
        assert vm.live_count == 1 and vm.deleted_count == 0
        stored = np.array([0, 1, 2], dtype=np.uint8)  # old replicas, new copy
        assert vm.live_mask(np.array([3, 3, 3]), stored).tolist() == [False, False, True]
        assert vm.cas_bump(3, 0) is None and vm.cas_bump(3, 1) is None

    def test_reinsert_version_skips_sentinel(self):
        """Same 0x7F skip as cas_bump: version 126 is followed by 0."""
        vm = VersionMap()
        vm.register(5)
        for version in range(126):
            assert vm.cas_bump(5, version) == version + 1
        vm.delete(5)
        assert vm.register(5) == 0
        assert vm.is_registered(5) and not vm.is_deleted(5)


class TestTombstones:
    def test_delete_sets_bit(self):
        vm = VersionMap()
        vm.register(1)
        assert vm.delete(1)
        assert vm.is_deleted(1)
        assert vm.live_count == 0
        assert vm.deleted_count == 1

    def test_double_delete_returns_false(self):
        vm = VersionMap()
        vm.register(1)
        assert vm.delete(1)
        assert not vm.delete(1)

    def test_delete_unknown_returns_false(self):
        assert not VersionMap().delete(42)

    def test_unknown_is_deleted(self):
        assert VersionMap().is_deleted(9)


class TestCas:
    def test_bump_success(self):
        vm = VersionMap()
        vm.register(1)
        assert vm.cas_bump(1, 0) == 1
        assert vm.current_version(1) == 1

    def test_bump_wrong_expected_fails(self):
        vm = VersionMap()
        vm.register(1)
        vm.cas_bump(1, 0)
        assert vm.cas_bump(1, 0) is None

    def test_bump_deleted_fails(self):
        vm = VersionMap()
        vm.register(1)
        vm.delete(1)
        assert vm.cas_bump(1, 0) is None

    def test_bump_unknown_fails(self):
        assert VersionMap().cas_bump(7, 0) is None

    def test_compare_and_set_takes_a_bump_back(self):
        """What a reassign does when its bumped row lands nowhere."""
        vm = VersionMap()
        vm.register(1)
        bumped = vm.cas_bump(1, 0)
        assert vm.compare_and_set(1, bumped, 0)
        assert vm.is_live(1, 0) and vm.cas_bump(1, 0) == 1

    def test_compare_and_set_refuses_a_moved_on_or_dead_vector(self):
        vm = VersionMap()
        vm.register(1)
        assert not vm.compare_and_set(1, 5, 0)  # not at the expected version
        assert not vm.compare_and_set(9, 0, 1)  # never registered
        vm.delete(1)
        assert not vm.compare_and_set(1, 0, 3)  # a tombstone stays one
        assert vm.is_deleted(1) and vm.current_version(1) == 0

    def test_version_wraps_skipping_sentinel(self):
        """Versions cycle without ever producing the 0x7F value whose
        deleted form would collide with the unregistered sentinel."""
        vm = VersionMap()
        vm.register(1)
        seen = set()
        version = 0
        for _ in range(300):
            version = vm.cas_bump(1, version)
            assert version is not None
            assert version != VERSION_MASK
            seen.add(version)
        assert max(seen) == VERSION_MASK - 1
        vm.delete(1)
        assert vm.is_registered(1)  # never confused with the sentinel


class TestLiveMask:
    def test_basic_filtering(self):
        vm = VersionMap()
        for vid in (1, 2, 3):
            vm.register(vid)
        vm.cas_bump(2, 0)  # stored version 0 becomes stale
        vm.delete(3)
        ids = np.array([1, 2, 3, 99], dtype=np.int64)
        versions = np.zeros(4, dtype=np.uint8)
        mask = vm.live_mask(ids, versions)
        assert list(mask) == [True, False, False, False]

    def test_fresh_version_live(self):
        vm = VersionMap()
        vm.register(1)
        new_v = vm.cas_bump(1, 0)
        mask = vm.live_mask(
            np.array([1, 1]), np.array([0, new_v], dtype=np.uint8)
        )
        assert list(mask) == [False, True]

    def test_empty_input(self):
        vm = VersionMap()
        mask = vm.live_mask(np.empty(0, np.int64), np.empty(0, np.uint8))
        assert mask.shape == (0,)

    def test_negative_and_out_of_range_ids(self):
        vm = VersionMap(initial_capacity=4)
        vm.register(0)
        ids = np.array([-5, 0, 1_000_000], dtype=np.int64)
        mask = vm.live_mask(ids, np.zeros(3, dtype=np.uint8))
        assert list(mask) == [False, True, False]

    def test_range_check_fallback_matches_fast_path(self):
        """In-range ids are indexed directly; one stray id switches the whole
        call to the masked branch, and both must agree entry for entry."""
        vm = VersionMap(initial_capacity=16)
        for vid in range(8):
            vm.register(vid)
        vm.cas_bump(2, 0)
        vm.delete(5)
        ids = np.arange(10, dtype=np.int64)  # 8 and 9: in range, never registered
        stored = np.zeros(10, dtype=np.uint8)
        want = [True, True, False, True, True, False, True, True, False, False]
        assert vm.live_mask(ids, stored).tolist() == want  # fast branch
        for stray in (-1, -(2**40), 16, 2**40):  # below zero / beyond capacity
            mixed = np.concatenate(([stray], ids, [stray]))
            mask = vm.live_mask(mixed, np.zeros(12, dtype=np.uint8))
            assert mask.tolist() == [False, *want, False]
            assert vm.live_mask(np.array([stray]), stored[:1]).tolist() == [False]
        empty = vm.live_mask(ids[:0], stored[:0])
        assert empty.shape == (0,) and empty.dtype == bool

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=30, unique=True))
    @settings(max_examples=25)
    def test_mask_matches_scalar_api(self, ids):
        vm = VersionMap()
        rng = np.random.default_rng(42)
        for vid in ids:
            vm.register(vid)
            if rng.random() < 0.3:
                vm.cas_bump(vid, 0)
            if rng.random() < 0.3:
                vm.delete(vid)
        arr = np.array(ids, dtype=np.int64)
        stored = np.zeros(len(ids), dtype=np.uint8)
        mask = vm.live_mask(arr, stored)
        for i, vid in enumerate(ids):
            expected = (
                vm.is_registered(vid)
                and not vm.is_deleted(vid)
                and vm.current_version(vid) == 0
            )
            assert mask[i] == expected == vm.is_live(vid, 0)
        # Ids the map never saw are not live at any version.
        assert not vm.is_live(-1, 0) and not vm.is_live(10**6, 0)
        assert not vm.is_live(51, 0xFF)  # in capacity, unregistered sentinel


class TestStateDict:
    def test_roundtrip(self):
        vm = VersionMap()
        for vid in range(10):
            vm.register(vid)
        vm.delete(4)
        vm.cas_bump(5, 0)
        other = VersionMap()
        other.load_state_dict(vm.state_dict())
        assert other.live_count == vm.live_count
        assert other.is_deleted(4)
        assert other.current_version(5) == 1

    def test_memory_scales_with_capacity(self):
        vm = VersionMap(initial_capacity=1024)
        assert vm.memory_bytes() == 1024
        vm.register(5000)
        assert vm.memory_bytes() >= 5001
