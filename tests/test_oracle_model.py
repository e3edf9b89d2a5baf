"""Model-based testing: SPFreshIndex vs the ``FlatIndex`` oracle.

A hypothesis state machine drives random interleaved inserts, deletes,
delete-then-re-inserts of one id (ABA), rebuild drains, GC passes, and
checkpoints against both the real index and the exact ``FlatIndex``,
asking both through the one ``query(QueryRequest)`` protocol. After every
step, exhaustive-probe search results must match the oracle's exact
answer — the strongest end-to-end statement that no LIRE operation loses,
duplicates, or resurrects a vector.
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

from repro.api import QueryRequest
from repro.baselines import FlatIndex
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.storage.snapshot import SnapshotManager
from repro.storage.wal import WriteAheadLog

DIM = 8


def _tiny_config() -> SPFreshConfig:
    return SPFreshConfig(
        dim=DIM,
        max_posting_size=16,
        min_posting_size=2,
        build_target_posting_size=4,
        replica_count=3,
        reassign_replicas=3,
        reassign_range=4,
        ssd_blocks=1 << 12,
        seed=3,
    )


class SPFreshOracleMachine(RuleBasedStateMachine):
    """Random ops on the index, verified against an exact oracle."""

    def __init__(self) -> None:
        super().__init__()
        self.rng = np.random.default_rng(99)
        self.oracle = FlatIndex(DIM)
        self.deleted: dict[int, np.ndarray] = {}  # id -> its last vector
        self.next_id = 0
        self.probe: np.ndarray | None = None  # last vector written
        self.index: SPFreshIndex | None = None

    @initialize(n=st.integers(8, 40))
    def build(self, n: int) -> None:
        vectors = self.rng.normal(size=(n, DIM)).astype(np.float32)
        self.index = SPFreshIndex.build(
            vectors,
            config=_tiny_config(),
            wal=WriteAheadLog(),
            snapshots=SnapshotManager(),
        )
        for i in range(n):
            self.oracle.insert(i, vectors[i])
        self.next_id = n
        self.probe = vectors[0]

    def _write(self, vector_id: int, vector: np.ndarray) -> None:
        self.index.insert(vector_id, vector)
        self.oracle.insert(vector_id, vector)
        self.probe = vector

    def _matches_oracle(self, query: np.ndarray) -> None:
        request = QueryRequest.single(query, k=5, nprobe=10**6)
        want = self.oracle.query(request).result
        got = self.index.query(request).result
        assert set(map(int, got.ids)) == set(map(int, want.ids))

    @rule(cluster=st.floats(-3, 3))
    def insert(self, cluster: float) -> None:
        vector = (
            self.rng.normal(size=DIM) + cluster
        ).astype(np.float32)
        self._write(self.next_id, vector)
        self.next_id += 1

    @precondition(lambda self: len(self.oracle) > 1)
    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick: int) -> None:
        live = self.oracle.ids()
        victim = int(live[pick % len(live)])
        self.deleted[victim] = self.oracle.vector(victim)
        self.index.delete(victim)
        self.oracle.delete(victim)

    @precondition(lambda self: self.deleted)
    @rule(pick=st.integers(0, 10**6), shift=st.floats(-6, 6))
    def reinsert(self, pick: int, shift: float) -> None:
        """ABA: a deleted id comes back at a new vector and is not found
        at its old one (the invariant then probes the new one)."""
        vector_id = sorted(self.deleted)[pick % len(self.deleted)]
        old = self.deleted.pop(vector_id)
        vector = (self.rng.normal(size=DIM) + shift).astype(np.float32)
        self._write(vector_id, vector)
        self._matches_oracle(old + np.float32(0.01))

    @rule()
    def drain(self) -> None:
        self.index.drain()

    @rule()
    def gc(self) -> None:
        self.index.gc_pass()

    @rule()
    def checkpoint_and_recover(self) -> None:
        self.index.checkpoint()
        self.index = SPFreshIndex.recover(
            self.index.ssd, self.index.config, self.index.snapshots,
            wal=self.index.wal,
        )

    @invariant()
    def live_count_matches(self) -> None:
        if self.index is None:
            return
        assert self.index.live_vector_count == len(self.oracle)

    @invariant()
    def exhaustive_search_matches_oracle(self) -> None:
        if self.index is None or not len(self.oracle):
            return
        self._matches_oracle(self.probe + np.float32(0.01))


TestSPFreshOracle = SPFreshOracleMachine.TestCase
TestSPFreshOracle.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
