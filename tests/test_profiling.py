"""The wall-clock profiler's stage contract.

``SPFreshIndex.profile_snapshot()`` is what ``benchmarks/e2e`` reads as
``searcher.stage_*_frac``: it holds SPANN's five query stages and
nothing else, whatever else the index did, and is empty with profiling
off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex
from tests.conftest import DIM

STAGES = {"navigate", "tables", "scan", "rerank", "topk"}


def _drive(vectors, config) -> SPFreshIndex:
    """Batched and single queries, inserts, deletes and a drain."""
    index = SPFreshIndex.build(vectors, config=config)
    rng = np.random.default_rng(7)
    queries = (vectors[:16] + rng.normal(scale=0.05, size=(16, DIM))).astype(
        np.float32
    )
    index.query(QueryRequest(vectors=queries, k=5))
    for query in queries[:4]:
        index.query(QueryRequest.single(query, k=5))
    for i in range(60):
        index.insert(10_000 + i, vectors[i] + 0.01)
    for vid in range(0, 40, 2):
        index.delete(vid)
    index.drain()
    index.query(QueryRequest(vectors=queries, k=5))
    index.query(QueryRequest.single(queries[0], k=5))
    return index


@pytest.fixture
def quantized_fresh(small_config):
    return small_config.with_overrides(
        quant_enabled=True,
        quant_kind="pq",
        quant_subspaces=8,
        quant_codebook_size=16,
        enable_fresh_tier=True,
        fresh_flush_threshold=32,
    )


def test_snapshot_holds_exactly_the_searcher_stages(vectors, quantized_fresh):
    index = _drive(vectors, quantized_fresh.with_overrides(enable_profiling=True))
    assert index.stats.fresh_flushes > 0
    snapshot = index.profile_snapshot()
    assert set(snapshot) == STAGES
    assert all(stats["calls"] > 0 for stats in snapshot.values())


def test_snapshot_is_empty_with_profiling_off(vectors, quantized_fresh):
    assert _drive(vectors, quantized_fresh).profile_snapshot() == {}
