"""Shared assertion helpers for LIRE-level invariants."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.jobs import ReassignJob
from repro.spann.postings import live_view
from repro.util.distance import sq_l2
from repro.util.workers import fork_available

# ``fork`` values for tests that run on both kinds of WorkerPool.
EXECUTORS = [
    pytest.param(False, id="thread"),
    pytest.param(
        True,
        id="fork",
        marks=pytest.mark.skipif(
            not fork_available(), reason="needs the 'fork' start method"
        ),
    ),
]


def free_pool(controller) -> list[int]:
    """A ``BlockController``'s free block ids in hand-out order, expanded
    from its snapshot's ``{"next", "released"}``."""
    free = controller.state_dict()["free"]
    return list(range(free["next"], controller.ssd.num_blocks)) + free["released"]


def assert_same_results(got, want) -> None:
    """Two result sequences agree in every ``SearchResult`` field."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(a):
            np.testing.assert_array_equal(
                getattr(a, field.name), getattr(b, field.name), field.name
            )


def live_assignment(index) -> dict[int, set[int]]:
    """Map of live vector id -> set of postings holding a live replica."""
    out: dict[int, set[int]] = {}
    for pid in index.controller.posting_ids():
        data, _ = index.controller.get(pid)
        live = live_view(data, index.version_map)
        for vid in live.ids:
            out.setdefault(int(vid), set()).add(pid)
    return out


def live_vector_of(index, vector_id: int) -> np.ndarray:
    """Fetch one live vector's raw data from any posting holding it."""
    for pid in index.controller.posting_ids():
        data, _ = index.controller.get(pid)
        live = live_view(data, index.version_map)
        rows = np.nonzero(live.ids == vector_id)[0]
        if len(rows):
            return live.vectors[rows[0]]
    raise AssertionError(f"vector {vector_id} has no live replica")


def assert_no_vector_lost(index, expected_live_ids) -> None:
    """Every expected live id has at least one live on-disk replica."""
    assignment = live_assignment(index)
    missing = set(int(v) for v in expected_live_ids) - set(assignment)
    assert not missing, f"lost vectors: {sorted(missing)[:10]}"
    extra = set(assignment) - set(int(v) for v in expected_live_ids)
    assert not extra, f"ghost vectors: {sorted(extra)[:10]}"


def brute_force_topk(
    vectors_by_vid: dict[int, np.ndarray], query: np.ndarray, k: int
) -> list[int]:
    """Exact top-k ids by squared L2 over an explicit id->vector oracle."""
    ids = sorted(vectors_by_vid)
    matrix = np.stack([vectors_by_vid[vid] for vid in ids])
    dists = ((matrix - query) ** 2).sum(axis=1)
    order = np.argsort(dists, kind="stable")
    return [ids[int(i)] for i in order[:k]]


def assert_posting_size_bounds(index, slack: int = 0) -> None:
    """After drain, no posting exceeds the split limit (+slack)."""
    limit = index.config.max_posting_size + slack
    for pid in index.controller.posting_ids():
        assert index.controller.length(pid) <= limit, (
            f"posting {pid} has {index.controller.length(pid)} entries > {limit}"
        )


def npa_violations(index, tolerance: float = 1e-5) -> list[int]:
    """Live vectors whose *best* replica posting is not their nearest centroid.

    With boundary replication a vector satisfies NPA if ANY of its live
    replicas sits in the nearest posting.
    """
    assignment = live_assignment(index)
    violations = []
    for vid, postings in assignment.items():
        vector = live_vector_of(index, vid)
        hits = index.centroid_index.search(vector, 1)
        if len(hits) == 0:
            continue
        nearest = hits.nearest
        if nearest in postings:
            continue
        # Tie tolerance: equal-distance centroids are both "nearest".
        d_nearest = sq_l2(vector, index.centroid_index.get(nearest))
        best = min(
            sq_l2(vector, index.centroid_index.get(pid)) for pid in postings
        )
        if best > d_nearest * (1 + tolerance) + tolerance:
            violations.append(vid)
    return violations


def reassign_batch(rows, source_posting: int) -> ReassignJob:
    """A reassign job from ``[(vector id, vector, expected version), ...]``."""
    ids, vectors, versions = zip(*rows)
    return ReassignJob(
        vector_ids=np.asarray(ids, dtype=np.int64),
        vectors=np.stack(vectors).astype(np.float32),
        expected_versions=np.asarray(versions, dtype=np.uint8),
        source_postings=np.full(len(ids), source_posting, dtype=np.int64),
    )
