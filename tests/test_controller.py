"""Tests for the Block Controller: mapping, free pool, posting API."""

from collections import deque

import numpy as np
import pytest

from repro.core.index import SPFreshIndex
from repro.core.recovery import collect_state
from repro.storage.controller import MAPPING_ENTRY_BYTES, BlockController, _PostingMeta
from repro.storage.layout import PostingCodec, PostingData
from repro.storage.snapshot import SnapshotManager
from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.util.errors import (
    OutOfSpaceError,
    RecoveryError,
    StalePostingError,
    StorageError,
)
from tests.conftest import DIM, make_posting
from tests.helpers import free_pool


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
        controller.put(0, make_posting(rng, codec.sections[0][0] * 6))
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
            controller.put(0, make_posting(rng, codec.sections[0][0] * 3))

    def test_free_pool_and_mapping_partition_device(self, controller, rng, ssd):
        """Every block is either free or owned by exactly one posting."""
        for pid in range(6):
            controller.put(pid, make_posting(rng, 10 + pid))
        controller.delete(2)
        controller.put(3, make_posting(rng, 2))
        controller.begin_defer_release()
        controller.delete(4)
        state = controller.state_dict()
        owned = [b for _, blocks in state["mapping"].values() for b in blocks]
        assert len(owned) == len(set(owned))
        assert state["pre_release"]
        assert sorted(
            owned + free_pool(controller) + state["pre_release"]
        ) == list(range(ssd.num_blocks))


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


class DequeReferenceController(BlockController):
    """The free pool as it was before it went compact, copied verbatim:
    one deque entry per free block, in hand-out order, and a snapshot
    that lists every one of them."""

    def __init__(self, ssd, codec) -> None:
        super().__init__(ssd, codec)
        self._free: deque[int] = deque(range(ssd.num_blocks))

    def _alloc(self, n: int) -> list[int]:
        if len(self._free) < n:
            raise OutOfSpaceError(
                f"need {n} free blocks, only {len(self._free)} available"
            )
        return [self._free.popleft() for _ in range(n)]

    def _release(self, blocks: list[int]) -> None:
        if not blocks:
            return
        if self._defer_release:
            self._pre_release.extend(blocks)
        else:
            self.ssd.trim(blocks)
            self._free.extend(blocks)

    def end_defer_release(self) -> list[int]:
        with self._lock:
            self._defer_release = False
            released = self._pre_release
            self._pre_release = []
            self.ssd.trim(released)
            self._free.extend(released)
            return released

    @property
    def free_block_count(self) -> int:
        with self._lock:
            return len(self._free)

    def free_blocks(self) -> list[int]:
        return list(self._free)

    def state_dict(self) -> dict:
        with self._lock:
            return {
                "mapping": {
                    pid: (m.length, list(m.blocks)) for pid, m in self._mapping.items()
                },
                "free": list(self._free),
                "pre_release": list(self._pre_release),
            }

    def load_state_dict(self, state: dict) -> None:
        mapping = {
            int(pid): _PostingMeta(int(length), [int(b) for b in blocks])
            for pid, (length, blocks) in state["mapping"].items()
        }
        free = deque(int(b) for b in state["free"])
        pre_release = [int(b) for b in state.get("pre_release", [])]

        claimed: set[int] = set()
        def _claim(block_id: int, owner: str) -> None:
            if not 0 <= block_id < self.ssd.num_blocks:
                raise StorageError(
                    f"snapshot state references block {block_id} outside the "
                    f"device geometry [0, {self.ssd.num_blocks})"
                )
            if block_id in claimed:
                raise StorageError(
                    f"snapshot state claims block {block_id} twice "
                    f"(second claim by {owner})"
                )
            claimed.add(block_id)

        for pid, meta in mapping.items():
            for block_id in meta.blocks:
                _claim(block_id, f"posting {pid}")
        for block_id in free:
            _claim(block_id, "free pool")
        for block_id in pre_release:
            _claim(block_id, "pre-release buffer")

        with self._lock:
            self._mapping = mapping
            self._free = free
            self._pre_release = pre_release


def _drive(seed: int, num_blocks: int, steps: int = 400):
    """Run one seeded op sequence on the compact pool and on the deque
    reference, each on its own device. Yields after every op: its name,
    what each controller returned (released ids or an OutOfSpaceError
    message; empty if nothing), and both controllers."""
    codec = PostingCodec(dim=DIM, block_size=512)
    profile = SSDProfile(block_size=512)
    new = BlockController(SimulatedSSD(num_blocks, profile), codec)
    ref = DequeReferenceController(SimulatedSSD(num_blocks, profile), codec)
    rng = np.random.default_rng(seed)
    for step in range(steps):
        op = str(rng.choice(["put", "put", "append", "append", "delete", "defer", "reload"]))
        pid = int(rng.integers(0, 12))  # put creates or overwrites
        pids = new.posting_ids()
        target = pids[int(rng.integers(len(pids)))] if pids else None
        rows = int(rng.integers(1, 30))
        outcome = []
        for ctl in (new, ref):
            data = make_posting(np.random.default_rng([seed, step]), rows)
            try:
                if op == "put":
                    ctl.put(pid, data)
                elif op == "append" and target is not None:
                    ctl.append(target, data)
                elif op == "delete" and target is not None:
                    ctl.delete(target)
                elif op == "defer" and ctl._defer_release:
                    outcome.append(ctl.end_defer_release())
                elif op == "defer":
                    ctl.begin_defer_release()
            except OutOfSpaceError as exc:
                outcome.append(str(exc))
        if op == "reload":  # a restarted process: snapshot into a fresh controller
            new_state, ref_state = new.state_dict(), ref.state_dict()
            new = BlockController(new.ssd, codec)
            new.load_state_dict(new_state)
            ref = DequeReferenceController(ref.ssd, codec)
            ref.load_state_dict(ref_state)
        yield op, outcome, new, ref


class TestCompactPoolParity:
    """The compact pool hands out the blocks the deque pool handed out."""

    @pytest.mark.parametrize("seed,num_blocks", [(0, 48), (1, 64), (2, 256), (3, 40)])
    def test_same_blocks_in_same_order(self, seed, num_blocks):
        ops = set()
        for op, outcome, new, ref in _drive(seed, num_blocks):
            ops.add(op)
            if len(outcome) == 2:
                assert outcome[0] == outcome[1]  # released ids, or the error text
            assert new.state_dict()["mapping"] == ref.state_dict()["mapping"]
            assert free_pool(new) == ref.free_blocks()
            assert new.free_block_count == ref.free_block_count
            assert new._pre_release == ref._pre_release
            assert new.ssd.export_blocks() == ref.ssd.export_blocks()
        assert ops == {"put", "append", "delete", "defer", "reload"}

    def test_small_device_exhausts_and_recycles(self):
        """The 40-block run runs out of space and, once ``next`` reaches
        the end of the device, hands released blocks out again."""
        errors = recycled = 0
        last_released = 0
        for _, outcome, new, _ in _drive(3, 40):
            errors += any(isinstance(o, str) for o in outcome)
            if new._next == new.ssd.num_blocks:
                recycled += len(new._released) < last_released
            last_released = len(new._released)
        assert errors > 0 and recycled > 0

    def test_out_of_space_is_all_or_nothing(self, codec, rng):
        tiny = SimulatedSSD(num_blocks=4, profile=SSDProfile(block_size=512))
        controller = BlockController(tiny, codec)
        controller.put(0, make_posting(rng, 1))
        controller.delete(0)
        before = free_pool(controller)
        with pytest.raises(OutOfSpaceError, match="need 5 free blocks, only 4 available"):
            controller.put(1, make_posting(rng, codec.sections[0][0] * 5))
        assert free_pool(controller) == before == [1, 2, 3, 0]


class TestLoadStateRejections:
    """A snapshot whose block claims do not partition the device is refused
    with a message naming the first bad block."""

    def _state(self, controller, rng):
        for pid in range(3):
            controller.put(pid, make_posting(rng, 30))
        controller.delete(1)
        return controller.state_dict()

    def _reject(self, ssd, codec, state, match):
        """The compact pool refuses ``state`` with the message the deque
        pool gives for the same state in its list format."""
        with pytest.raises(StorageError, match=match) as refused:
            BlockController(ssd, codec).load_state_dict(state)
        free = state["free"]
        listed = list(range(free["next"], ssd.num_blocks)) + free["released"]
        with pytest.raises(StorageError) as reference:
            DequeReferenceController(ssd, codec).load_state_dict(dict(state, free=listed))
        assert str(refused.value) == str(reference.value)

    def test_block_outside_the_geometry(self, controller, rng, ssd, codec):
        state = self._state(controller, rng)
        state["mapping"][2][1][0] = ssd.num_blocks + 3
        self._reject(
            ssd, codec, state,
            rf"references block {ssd.num_blocks + 3} outside the device "
            rf"geometry \[0, {ssd.num_blocks}\)",
        )
        state["mapping"][2][1][0] = -1
        self._reject(ssd, codec, state, "references block -1 outside")

    def test_one_block_in_two_postings(self, controller, rng, ssd, codec):
        state = self._state(controller, rng)
        shared = state["mapping"][0][1][0]
        state["mapping"][2][1][0] = shared
        self._reject(
            ssd, codec, state,
            rf"claims block {shared} twice \(second claim by posting 2\)",
        )

    def test_posting_block_at_or_above_next(self, controller, rng, ssd, codec):
        state = self._state(controller, rng)
        untouched = state["free"]["next"]
        state["mapping"][2][1][-1] = untouched
        self._reject(
            ssd, codec, state,
            rf"claims block {untouched} twice \(second claim by free pool\)",
        )

    def test_block_released_and_pre_released(self, controller, rng, ssd, codec):
        state = self._state(controller, rng)
        twice = state["free"]["released"][0]
        state["pre_release"] = [twice]
        self._reject(
            ssd, codec, state,
            rf"claims block {twice} twice \(second claim by pre-release buffer\)",
        )

    def test_next_outside_the_geometry(self, controller, rng, ssd, codec):
        state = self._state(controller, rng)
        for bad in (ssd.num_blocks + 1, -1):
            state["free"]["next"] = bad
            with pytest.raises(StorageError, match=f"untouched range at block {bad},"):
                BlockController(ssd, codec).load_state_dict(state)

    def test_valid_state_loads(self, controller, rng, ssd, codec):
        state = self._state(controller, rng)
        other = BlockController(ssd, codec)
        other.load_state_dict(state)
        assert free_pool(other) == free_pool(controller)

    def test_old_list_format_is_a_recovery_error(self, vectors, small_config):
        snapshots = SnapshotManager()
        index = SPFreshIndex.build(vectors, config=small_config, snapshots=snapshots)
        state = collect_state(index)
        state["controller"]["free"] = free_pool(index.controller)
        with pytest.raises(StorageError, match="old list format"):
            BlockController(index.ssd, index.controller.codec).load_state_dict(
                state["controller"]
            )
        snapshots.save(state)
        with pytest.raises(RecoveryError, match="old list format"):
            SPFreshIndex.recover(index.ssd, index.config, snapshots)
