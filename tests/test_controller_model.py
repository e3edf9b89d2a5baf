"""Model-based testing of the Block Controller against a dict oracle.

A hypothesis state machine drives random put/append/delete/defer cycles
against the controller and an in-memory oracle of posting contents. The
invariants checked after every step are the storage-correctness core of
the system: contents round-trip exactly, and the block accounting never
leaks or double-allocates.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.storage.controller import BlockController
from repro.storage.layout import PostingCodec, PostingData
from repro.storage.ssd import SimulatedSSD, SSDProfile
from tests.helpers import free_pool

DIM = 4
NUM_BLOCKS = 256


def _make_posting(rng: np.random.Generator, n: int, tag: int) -> PostingData:
    return PostingData.from_rows(
        ids=np.arange(tag, tag + n, dtype=np.int64),
        versions=rng.integers(0, 100, size=n).astype(np.uint8),
        vectors=rng.normal(size=(n, DIM)).astype(np.float32),
    )


class ControllerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.rng = np.random.default_rng(7)
        self.ssd = SimulatedSSD(NUM_BLOCKS, SSDProfile(block_size=256))
        self.codec = PostingCodec(DIM, 256)
        self.controller = BlockController(self.ssd, self.codec)
        self.oracle: dict[int, PostingData] = {}
        self.next_pid = 0
        self.tag = 0

    @initialize()
    def setup(self) -> None:
        pass

    def _fresh_posting(self, n: int) -> PostingData:
        data = _make_posting(self.rng, n, self.tag)
        self.tag += n + 1
        return data

    @rule(n=st.integers(0, 12))
    def put_new(self, n: int) -> None:
        if self.controller.free_block_count < self.codec.blocks_needed(n) + 4:
            return  # stay clear of ENOSPC; space exhaustion tested elsewhere
        data = self._fresh_posting(n)
        pid = self.next_pid
        self.next_pid += 1
        self.controller.put(pid, data)
        self.oracle[pid] = data

    @precondition(lambda self: self.oracle)
    @rule(n=st.integers(0, 10), pick=st.integers(0, 10**6))
    def overwrite(self, n: int, pick: int) -> None:
        if self.controller.free_block_count < self.codec.blocks_needed(n) + 4:
            return
        pid = sorted(self.oracle)[pick % len(self.oracle)]
        data = self._fresh_posting(n)
        self.controller.put(pid, data)
        self.oracle[pid] = data

    @precondition(lambda self: self.oracle)
    @rule(n=st.integers(1, 6), pick=st.integers(0, 10**6))
    def append(self, n: int, pick: int) -> None:
        if self.controller.free_block_count < self.codec.blocks_needed(n) + 4:
            return
        pid = sorted(self.oracle)[pick % len(self.oracle)]
        data = self._fresh_posting(n)
        self.controller.append(pid, data)
        self.oracle[pid] = self.oracle[pid].concat(data)

    @precondition(lambda self: self.oracle)
    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick: int) -> None:
        pid = sorted(self.oracle)[pick % len(self.oracle)]
        self.controller.delete(pid)
        del self.oracle[pid]

    @rule()
    def toggle_deferral(self) -> None:
        if self.controller._defer_release:
            self.controller.end_defer_release()
        else:
            self.controller.begin_defer_release()

    # ------------------------------------------------------------------
    @invariant()
    def contents_match_oracle(self) -> None:
        assert self.controller.num_postings == len(self.oracle)
        for pid, expected in self.oracle.items():
            actual, _ = self.controller.get(pid)
            np.testing.assert_array_equal(actual.ids, expected.ids)
            np.testing.assert_array_equal(actual.versions, expected.versions)
            np.testing.assert_array_equal(actual.vectors, expected.vectors)

    @invariant()
    def blocks_partition_device(self) -> None:
        state = self.controller.state_dict()
        owned = [b for _, blocks in state["mapping"].values() for b in blocks]
        everything = owned + free_pool(self.controller) + state["pre_release"]
        assert len(everything) == NUM_BLOCKS
        assert len(set(everything)) == NUM_BLOCKS

    @invariant()
    def lengths_match(self) -> None:
        for pid, expected in self.oracle.items():
            assert self.controller.length(pid) == len(expected)


TestBlockControllerModel = ControllerMachine.TestCase
TestBlockControllerModel.settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None
)
