"""Tests for the Block Controller: mapping, free pool, posting API."""

import numpy as np
import pytest

from repro.storage.controller import MAPPING_ENTRY_BYTES, BlockController
from repro.storage.layout import PostingData
from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.util.errors import OutOfSpaceError, StalePostingError, StorageError
from tests.conftest import DIM, make_posting


class TestPutGet:
    def test_roundtrip(self, controller, rng):
        data = make_posting(rng, 12)
        controller.put(0, data)
        out, latency = controller.get(0)
        np.testing.assert_array_equal(out.ids, data.ids)
        np.testing.assert_array_equal(out.vectors, data.vectors)
        assert latency > 0

    def test_get_missing_raises(self, controller):
        with pytest.raises(StalePostingError):
            controller.get(99)

    def test_create_requires_fresh_id(self, controller, rng):
        controller.create(1, make_posting(rng, 3))
        with pytest.raises(StorageError):
            controller.create(1, make_posting(rng, 3))

    def test_put_overwrites_and_frees_old_blocks(self, controller, rng):
        controller.put(0, make_posting(rng, 40))
        free_after_big = controller.free_block_count
        controller.put(0, make_posting(rng, 2))
        assert controller.free_block_count > free_after_big
        assert controller.length(0) == 2

    def test_empty_posting(self, controller):
        controller.put(5, PostingData.empty(DIM))
        out, _ = controller.get(5)
        assert len(out) == 0

    def test_length_and_exists(self, controller, rng):
        assert not controller.exists(3)
        controller.put(3, make_posting(rng, 7))
        assert controller.exists(3)
        assert controller.length(3) == 7
        with pytest.raises(StalePostingError):
            controller.length(4)

    def test_lengths_one_round_trip(self, controller, rng):
        controller.put(3, make_posting(rng, 7))
        controller.put(9, make_posting(rng, 0))
        assert controller.lengths([9, 4, 3, 3]) == [0, None, 7, 7]
        assert controller.lengths([]) == []


class TestParallelGet:
    def test_reads_many(self, controller, rng):
        for pid in range(5):
            controller.put(pid, make_posting(rng, pid + 1, id_start=pid * 100))
        out, latency = controller.parallel_get([0, 2, 4])
        assert set(out.keys()) == {0, 2, 4}
        assert len(out[4]) == 5
        assert latency > 0

    def test_skips_missing_postings(self, controller, rng):
        controller.put(0, make_posting(rng, 3))
        out, _ = controller.parallel_get([0, 77])
        assert set(out.keys()) == {0}
        assert 77 not in out and out.get(77) is None

    def test_returns_one_arena_in_request_order(self, controller, rng):
        postings = {pid: make_posting(rng, n, id_start=pid * 100)
                    for pid, n in ((4, 5), (1, 0), (2, 9))}
        for pid, data in postings.items():
            controller.put(pid, data)
        arena, _ = controller.parallel_get([2, 77, 1, 4])
        assert arena.posting_ids == [2, 1, 4] and len(arena) == 3
        assert arena.bounds.tolist() == [0, 9, 9, 14]
        np.testing.assert_array_equal(
            arena.ids, np.concatenate([postings[pid].ids for pid in (2, 1, 4)])
        )
        assert arena.rows is arena.vectors and arena.vectors.shape == (14, controller.codec.dim)
        for pid, data in arena.items():
            np.testing.assert_array_equal(data.ids, postings[pid].ids)
            np.testing.assert_array_equal(data.versions, postings[pid].versions)
            np.testing.assert_array_equal(data.vectors, postings[pid].vectors)
            assert not data.owns_memory()  # a view into the arena's columns
        empty, latency = controller.parallel_get([77])
        assert len(empty) == 0 and empty == {} and len(empty.ids) == 0

    def test_batched_latency_cheaper_than_serial(self, controller, rng):
        for pid in range(8):
            controller.put(pid, make_posting(rng, 4))
        _, batch_latency = controller.parallel_get(list(range(8)))
        serial = sum(controller.get(pid)[1] for pid in range(8))
        assert batch_latency < serial


class TestAppend:
    def test_append_extends(self, controller, rng):
        controller.put(0, make_posting(rng, 5))
        controller.append(0, make_posting(rng, 3, id_start=500))
        out, _ = controller.get(0)
        assert len(out) == 8
        assert out.ids[5] == 500

    def test_append_preserves_prefix(self, controller, rng):
        first = make_posting(rng, 9)
        controller.put(0, first)
        controller.append(0, make_posting(rng, 6, id_start=900))
        out, _ = controller.get(0)
        np.testing.assert_array_equal(out.ids[:9], first.ids)
        np.testing.assert_array_equal(out.vectors[:9], first.vectors)

    def test_append_missing_posting(self, controller, rng):
        with pytest.raises(StalePostingError):
            controller.append(42, make_posting(rng, 1))

    def test_append_empty_is_noop(self, controller, rng):
        controller.put(0, make_posting(rng, 2))
        assert controller.append(0, PostingData.empty(DIM)) == 0.0
        assert controller.length(0) == 2

    def test_append_only_rewrites_tail_block(self, controller, rng, ssd, codec):
        """APPEND writes O(1) blocks regardless of posting length."""
        controller.put(0, make_posting(rng, codec.entries_per_block * 6))
        before = ssd.stats.snapshot()
        controller.append(0, make_posting(rng, 1, id_start=10_000))
        window = ssd.stats.snapshot().delta(before)
        assert window.block_writes == 1  # full tail -> one fresh block
        assert window.block_reads == 0
        before2 = ssd.stats.snapshot()
        controller.append(0, make_posting(rng, 1, id_start=10_001))
        window2 = ssd.stats.snapshot().delta(before2)
        # Partial tail: read 1 + write 1, still independent of length.
        assert window2.block_reads == 1
        assert window2.block_writes == 1

    def test_many_appends_accumulate(self, controller, rng):
        controller.put(0, make_posting(rng, 1))
        for i in range(30):
            controller.append(0, make_posting(rng, 1, id_start=1000 + i))
        out, _ = controller.get(0)
        assert len(out) == 31
        assert list(out.ids[1:]) == list(range(1000, 1030))


class TestDeleteAndFreePool:
    def test_delete_releases_blocks(self, controller, rng, ssd):
        total = controller.free_block_count
        controller.put(0, make_posting(rng, 40))
        assert controller.free_block_count < total
        controller.delete(0)
        assert controller.free_block_count == total
        assert not controller.exists(0)

    def test_delete_missing(self, controller):
        with pytest.raises(StalePostingError):
            controller.delete(0)

    def test_out_of_space(self, codec, rng):
        tiny = SimulatedSSD(num_blocks=2, profile=SSDProfile(block_size=512))
        controller = BlockController(tiny, codec)
        with pytest.raises(OutOfSpaceError):
            controller.put(0, make_posting(rng, codec.entries_per_block * 3))

    def test_free_pool_and_mapping_partition_device(self, controller, rng, ssd):
        """Every block is either free or owned by exactly one posting."""
        for pid in range(6):
            controller.put(pid, make_posting(rng, 10 + pid))
        controller.delete(2)
        controller.put(3, make_posting(rng, 2))
        state = controller.state_dict()
        owned = [b for _, blocks in state["mapping"].values() for b in blocks]
        assert len(owned) == len(set(owned))
        assert sorted(owned + state["free"] + state["pre_release"]) == list(
            range(ssd.num_blocks)
        )


class TestDeferredRelease:
    def test_deferral_holds_blocks(self, controller, rng):
        controller.put(0, make_posting(rng, 20))
        controller.begin_defer_release()
        free_before = controller.free_block_count
        controller.delete(0)
        assert controller.free_block_count == free_before
        released = controller.end_defer_release()
        assert len(released) > 0
        assert controller.free_block_count == free_before + len(released)

    def test_deferred_blocks_still_readable(self, controller, rng, ssd):
        """Copy-on-write: a snapshot can still read superseded blocks."""
        data = make_posting(rng, 4)
        controller.put(0, data)
        old_blocks = controller.state_dict()["mapping"][0][1]
        controller.begin_defer_release()
        controller.put(0, make_posting(rng, 4, id_start=99))
        payloads, _ = ssd.read_blocks(list(old_blocks))
        decoded = controller.codec.decode(payloads, 4)
        np.testing.assert_array_equal(decoded.ids, data.ids)


class TestStateDict:
    def test_roundtrip(self, controller, rng, ssd, codec):
        for pid in range(4):
            controller.put(pid, make_posting(rng, 5 + pid, id_start=pid * 10))
        state = controller.state_dict()
        other = BlockController(ssd, codec)
        other.load_state_dict(state)
        for pid in range(4):
            a, _ = controller.get(pid)
            b, _ = other.get(pid)
            np.testing.assert_array_equal(a.ids, b.ids)

    def test_memory_model(self, controller, rng):
        for pid in range(3):
            controller.put(pid, make_posting(rng, 2))
        assert controller.mapping_memory_bytes() == 3 * MAPPING_ENTRY_BYTES

    def test_total_entries(self, controller, rng):
        controller.put(0, make_posting(rng, 5))
        controller.put(1, make_posting(rng, 7))
        assert controller.total_entries() == 12
