"""Wall-clock engine pools: really run the batches K ways in parallel.

The serving simulation prices concurrency on the simulated clock (the
K-worker pool in :class:`~repro.serving.frontend.ServingFrontend`); this
module is the other half of the repo's two-clock model — it takes the
exact batch compositions a finished :class:`ServingReport` recorded and
executes them again on real threads or forked processes, so the
wall-clock goodput speedup can be *measured* rather than modelled.

Two invariants make the measurement trustworthy:

* **bit-identical answers** — the engine's batched search is a pure
  function of (queries, k, nprobe) on a read-only searcher, so a pool
  replay must return exactly the ids/distances of a serial replay of
  the same batches. :func:`count_mismatches` checks this seat by seat;
  the perf scenario gates it at zero. Use searcher-level engines (or
  any read-only query surface) for replay — ``SPFreshIndex.query`` has
  maintenance side effects and only holds parity from identical
  starting states (same caveat as ``distributed/executor.py``).
* **informational only** — wall-clock numbers (speedups, pool wall
  time) are reported but never gated; they depend on the host.

:class:`ThreadEnginePool` shares the engine across worker threads — the
numpy kernels under ``search_many`` release the GIL, so batches overlap
on real cores. :class:`ProcessEnginePool` forks one worker process per
slot (the ``distributed/executor.py`` ProcessShardPool pattern: the
engine is inherited by address-space copy, nothing is pickled, workers
are daemonic, all sends go out before any receive). Batches are
assigned to workers round robin by batch index, which keeps the
assignment deterministic and the reassembled answer order independent
of scheduling.

Each pool worker runs under a profiler stage named ``serve_worker<i>``
so per-worker wall time shows up in ``repro.metrics.profiling`` reports.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.api import QueryRequest
from repro.distributed.executor import fork_available
from repro.metrics.profiling import NULL_PROFILER


def batch_jobs(trace, report) -> list[np.ndarray]:
    """Replayable per-batch query matrices from a finished serving run.

    Batch ``i`` of the returned list holds exactly the query vectors the
    simulated run's batch ``i`` answered, in seat order.
    """
    return [
        np.ascontiguousarray(trace.queries[batch.query_rows])
        for batch in report.batches
    ]


def answer_batch(engine, vectors: np.ndarray, k: int, nprobe: int | None):
    """One batch through the engine's best surface (mirrors the frontend)."""
    query = getattr(engine, "query", None)
    if query is not None:
        request = QueryRequest(vectors=vectors, k=k, nprobe=nprobe)
        return list(query(request).results)
    search = getattr(engine, "search_many", None)
    if search is None:
        raise TypeError("engine must expose query or search_many")
    return search(vectors, k, nprobe)


def _freeze(results) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reduce engine results to comparable (ids, distances) pairs."""
    return [
        (np.asarray(r.ids).copy(), np.asarray(r.distances).copy())
        for r in results
    ]


@dataclass
class ReplayResult:
    """Answers plus wall time for one replay of a batch schedule."""

    batch_answers: list  # per batch: list of (ids, distances) per seat
    wall_s: float
    num_workers: int


def serial_replay(
    engine, jobs, k: int, nprobe: int | None = None, profiler=NULL_PROFILER
) -> ReplayResult:
    """Run the batch schedule one batch at a time (the parity baseline)."""
    start = time.perf_counter()
    answers = []
    with profiler.section("serve_replay_serial"):
        for vectors in jobs:
            answers.append(_freeze(answer_batch(engine, vectors, k, nprobe)))
    return ReplayResult(answers, time.perf_counter() - start, 1)


class ThreadEnginePool:
    """Shared-engine thread pool; batches overlap on GIL-free kernels."""

    def __init__(self, engine, num_workers: int, profiler=NULL_PROFILER) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.engine = engine
        self.num_workers = num_workers
        self.profiler = profiler

    def run(self, jobs, k: int, nprobe: int | None = None) -> ReplayResult:
        """Execute all batches, round-robin across worker threads."""
        answers: list = [None] * len(jobs)
        errors: list[BaseException] = []

        def worker(widx: int) -> None:
            try:
                with self.profiler.section(f"serve_worker{widx}"):
                    for j in range(widx, len(jobs), self.num_workers):
                        results = answer_batch(self.engine, jobs[j], k, nprobe)
                        answers[j] = _freeze(results)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        start = time.perf_counter()
        threads = [
            threading.Thread(target=worker, args=(w,), daemon=True)
            for w in range(self.num_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return ReplayResult(answers, time.perf_counter() - start, self.num_workers)


def _engine_worker_loop(engine, conn) -> None:
    """Forked worker body: answer batch-slice jobs on the inherited engine."""
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, jobs, k, nprobe = msg
            out = []
            for vectors in jobs:
                out.append(_freeze(answer_batch(engine, vectors, k, nprobe)))
            conn.send(out)
    finally:
        conn.close()


class ProcessEnginePool:
    """Forked worker processes, each holding an inherited engine copy."""

    def __init__(self, engine, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if not fork_available():
            raise RuntimeError(
                "ProcessEnginePool needs the 'fork' start method; "
                "use ThreadEnginePool on this platform"
            )
        for index in self._component_indexes(engine):
            if getattr(index, "_background_running", False):
                raise RuntimeError(
                    "cannot fork an engine with live background workers; "
                    "build with synchronous_rebuild=True (the default) "
                    "or stop() workers first"
                )
        ctx = mp.get_context("fork")
        self._conns = []
        self._procs = []
        for _ in range(num_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_engine_worker_loop,
                args=(engine, child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self.num_workers = num_workers
        self._closed = False

    @staticmethod
    def _component_indexes(engine):
        """The engine itself plus any shard indexes a facade wraps."""
        yield engine
        for shard in getattr(engine, "shards", None) or []:
            yield shard

    def run(self, jobs, k: int, nprobe: int | None = None) -> ReplayResult:
        """Execute all batches; worker ``w`` gets batches ``w::K``."""
        if self._closed:
            raise RuntimeError("pool is closed")
        start = time.perf_counter()
        slices = [list(jobs[w :: self.num_workers]) for w in range(self.num_workers)]
        for conn, piece in zip(self._conns, slices):
            conn.send(("run", piece, k, nprobe))
        answers: list = [None] * len(jobs)
        for w, conn in enumerate(self._conns):
            for offset, batch in enumerate(conn.recv()):
                answers[w + offset * self.num_workers] = batch
        return ReplayResult(answers, time.perf_counter() - start, self.num_workers)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()

    def __enter__(self) -> "ProcessEnginePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


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
