"""Wall-clock replay: really run a served batch schedule K ways in parallel.

The serving simulation prices concurrency on the simulated clock (the
K-worker pool in :class:`~repro.serving.frontend.ServingFrontend`); this
module is the other half of the two-clock model — it executes the exact
batches a finished :class:`ServingReport` recorded again, one at a time
or on a :class:`~repro.util.workers.WorkerPool` of threads or forked
processes, so the wall-clock goodput speedup is *measured*, not modelled.

* **bit-identical answers** — every batch is sent as the
  :class:`~repro.api.QueryRequest` the frontend would build, all knobs
  included, and batched search is a pure function of it on a read-only
  searcher, so a pooled replay must return exactly the serial replay's
  ids/distances. :func:`count_mismatches` checks this seat by seat; the
  perf scenario gates it at zero. Any engine's ``query`` replays, but
  parity needs a read-only one such as ``SpannSearcher``:
  ``SPFreshIndex.query`` has maintenance side effects and only holds
  parity from identical starting states.
* **informational only** — wall-clock numbers depend on the host; they
  are reported, never gated.

Worker ``w`` of K takes batches ``w::K`` — a deterministic assignment
that keeps the reassembled answers independent of scheduling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.api import QueryRequest
from repro.util.workers import WorkerPool


def batch_jobs(trace, report) -> list[np.ndarray]:
    """Per-batch query matrices of a finished serving run, in seat order."""
    return [
        np.ascontiguousarray(trace.queries[batch.query_rows])
        for batch in report.batches
    ]


@dataclass
class ReplayResult:
    """Answers plus wall time for one replay of a batch schedule."""

    batch_answers: list  # per batch: list of (ids, distances) per seat
    wall_s: float
    num_workers: int


def _replay_slice(engine, requests) -> list:
    """What a replay worker runs: its batches, in order."""
    return [
        [(np.array(r.ids), np.array(r.distances)) for r in engine.query(request)]
        for request in requests
    ]


def replay_pool(engine, num_workers: int, *, fork: bool) -> WorkerPool:
    """``num_workers`` replay workers over one engine, for :func:`replay`."""
    return WorkerPool([engine] * num_workers, _replay_slice, fork=fork)


def replay(engine, jobs, k: int, nprobe=None, *, pool=None, **knobs) -> ReplayResult:
    """Answer the batch schedule again and time it.

    ``k``, ``nprobe`` and every further :class:`QueryRequest` knob the
    frontend ran with (``rerank_k=``, ``quantized=``) go into each
    batch's request. Without a ``pool`` the batches run one at a time on
    ``engine`` — the parity baseline; a pool from :func:`replay_pool`
    brings its own engine copies.
    """
    requests = [
        QueryRequest(vectors=vectors, k=k, nprobe=nprobe, **knobs)
        for vectors in jobs
    ]
    start = time.perf_counter()
    if pool is None:
        workers = 1
        answers = _replay_slice(engine, requests)
    else:
        workers = len(pool)
        slices = pool.run({w: requests[w::workers] for w in range(workers)})
        answers = [None] * len(requests)
        for w, piece in slices.items():
            answers[w::workers] = piece
    return ReplayResult(answers, time.perf_counter() - start, workers)


def count_mismatches(a: ReplayResult, b: ReplayResult) -> int:
    """Seats whose (ids, distances) are not bit-identical across replays."""
    if len(a.batch_answers) != len(b.batch_answers):
        raise ValueError("replays cover different batch schedules")
    mismatches = 0
    for batch_a, batch_b in zip(a.batch_answers, b.batch_answers):
        if len(batch_a) != len(batch_b):
            raise ValueError("replays cover different batch sizes")
        for (ids_a, dist_a), (ids_b, dist_b) in zip(batch_a, batch_b):
            if not (
                np.array_equal(ids_a, ids_b)
                and np.array_equal(dist_a, dist_b)
            ):
                mismatches += 1
    return mismatches
