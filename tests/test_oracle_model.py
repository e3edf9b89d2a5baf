"""Model-based testing: SPFreshIndex vs a brute-force oracle.

A hypothesis state machine drives random interleaved inserts, deletes,
rebuild drains, GC passes, and checkpoints against both the real index and
a trivially correct in-memory oracle. After every step, exhaustive-probe
search results must match the oracle's exact answer — the strongest
end-to-end statement that no LIRE operation loses, duplicates, or
resurrects a vector.
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
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.datasets import exact_knn
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
        self.oracle: dict[int, np.ndarray] = {}
        self.next_id = 0
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
            self.oracle[i] = vectors[i]
        self.next_id = n

    @rule(cluster=st.floats(-3, 3))
    def insert(self, cluster: float) -> None:
        vector = (
            self.rng.normal(size=DIM) + cluster
        ).astype(np.float32)
        self.index.insert(self.next_id, vector)
        self.oracle[self.next_id] = vector
        self.next_id += 1

    @precondition(lambda self: len(self.oracle) > 1)
    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick: int) -> None:
        victim = sorted(self.oracle)[pick % len(self.oracle)]
        self.index.delete(victim)
        del self.oracle[victim]

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
        if self.index is None or not self.oracle:
            return
        ids = np.array(sorted(self.oracle), dtype=np.int64)
        vectors = np.vstack([self.oracle[int(v)] for v in ids])
        query = vectors[0] + 0.01
        truth = exact_knn(vectors, ids, query.reshape(1, -1), k=5)[0]
        result = self.index.query(QueryRequest.single(query, k=5, nprobe=10**6)).result
        assert set(map(int, result.ids)) == set(map(int, truth))


TestSPFreshOracle = SPFreshOracleMachine.TestCase
TestSPFreshOracle.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
