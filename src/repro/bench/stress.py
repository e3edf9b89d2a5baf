"""Deterministic concurrency stress harness for the background pipeline.

The LIRE pipeline's correctness claim — splits, merges, and reassigns run
concurrently with foreground inserts/deletes/searches without breaking the
index invariants — is only credible under adversarial interleavings. This
driver provides them reproducibly:

* a :class:`ChaosSchedule` — a *seeded* yield/sleep injector installed at
  the two scheduling boundaries the pipeline exposes (``JobQueue.get`` and
  ``PostingLockManager.hold``), forcing context switches exactly where a
  race would bite;
* a mixed insert/delete/search workload driven by seeded per-thread
  schedules against an index running background rebuild workers;
* a post-``stop()`` audit: :func:`repro.core.invariants.check_invariants`
  plus a self-recall sanity probe (querying a live vector's own data must
  find it).

Thread scheduling itself is up to the OS, so runs are not bit-identical;
the *decision streams* (workload ops, chaos yields) are fully determined
by ``seed``, which is what makes failures re-runnable in practice.

Run from the CLI::

    PYTHONPATH=src python -m repro.bench.stress --seeds 0 1 2 --workers 4
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import QueryRequest
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.core.invariants import InvariantReport, check_invariants
from repro.core.jobs import ReassignJob


class ChaosSchedule:
    """Seeded adversarial yield injector for lock/queue boundaries.

    Installed as the ``chaos`` hook of a :class:`JobQueue` and a
    :class:`PostingLockManager`; at each boundary it rolls a seeded RNG and
    either returns immediately, yields the GIL (``sleep(0)``), or sleeps up
    to ``max_sleep_us`` — widening exactly the windows (lock acquisition,
    job dequeue) where lifecycle races hide.
    """

    def __init__(
        self,
        seed: int = 0,
        yield_probability: float = 0.2,
        sleep_probability: float = 0.05,
        max_sleep_us: float = 500.0,
        stats=None,
    ) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.yield_probability = yield_probability
        self.sleep_probability = sleep_probability
        self.max_sleep_us = max_sleep_us
        self.stats = stats
        self.calls = 0
        self.yields = 0

    def install(self, index: SPFreshIndex) -> "ChaosSchedule":
        """Attach to an index's lock manager and job queue."""
        if self.stats is None:
            self.stats = index.stats
        index.locks.chaos = self
        index.job_queue.chaos = self
        return self

    def __call__(self, point: str, detail: int | None = None) -> None:
        with self._lock:
            self.calls += 1
            roll = self._rng.random()
            sleep_fraction = self._rng.random()
        if roll < self.sleep_probability:
            delay = sleep_fraction * self.max_sleep_us / 1e6
        elif roll < self.sleep_probability + self.yield_probability:
            delay = 0.0
        else:
            return
        with self._lock:
            self.yields += 1
        if self.stats is not None:
            self.stats.incr("chaos_yields")
        time.sleep(delay)


@dataclass
class StressConfig:
    """Knobs of one stress run; everything downstream of ``seed`` is seeded."""

    dim: int = 16
    initial_vectors: int = 256
    foreground_threads: int = 3
    background_workers: int = 2
    ops_per_thread: int = 150
    insert_weight: float = 0.55
    delete_weight: float = 0.15  # remainder of the mix is searches
    batch_search_every: int = 10  # every Nth search is a batched query
    seed: int = 0
    chaos_yield_probability: float = 0.2
    chaos_sleep_probability: float = 0.05
    chaos_max_sleep_us: float = 300.0
    search_k: int = 5
    nprobe: int = 8
    recall_samples: int = 64
    index_overrides: dict = field(default_factory=dict)

    def build_index_config(self) -> SPFreshConfig:
        overrides = dict(
            dim=self.dim,
            max_posting_size=32,
            min_posting_size=3,
            build_target_posting_size=16,
            ssd_blocks=1 << 13,
            reassign_range=8,
            seed=self.seed,
            synchronous_rebuild=False,
            background_workers=self.background_workers,
        )
        overrides.update(self.index_overrides)
        return SPFreshConfig(**overrides)


@dataclass
class StressReport:
    """Everything one stress run observed, plus the final audit."""

    config: StressConfig
    inserts: int = 0
    deletes: int = 0
    searches: int = 0
    errors: list[str] = field(default_factory=list)
    worker_errors: list[str] = field(default_factory=list)
    invariants: InvariantReport | None = None
    self_recall: float = 1.0
    chaos_calls: int = 0
    chaos_yields: int = 0
    lock_recycles: int = 0
    reassign_posting_missing: int = 0  # appends that found their posting gone
    # Rows of each reassign job queued while the threads ran: a row's CAS
    # and its first landed copy are at most one job's grouped appends apart.
    reassign_job_rows: list[int] = field(default_factory=list)
    live_vectors: int = 0
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            not self.errors
            and not self.worker_errors
            and self.invariants is not None
            and self.invariants.ok
            and self.self_recall >= 0.9
        )

    def summary(self) -> str:
        state = "OK" if self.ok else "FAIL"
        lines = [
            f"stress seed={self.config.seed} threads={self.config.foreground_threads} "
            f"workers={self.config.background_workers}: {state}",
            f"  ops: {self.inserts} inserts, {self.deletes} deletes, "
            f"{self.searches} searches in {self.duration_s:.2f}s",
            f"  chaos: {self.chaos_yields}/{self.chaos_calls} yields, "
            f"{self.lock_recycles} lock recycles, "
            f"{self.reassign_posting_missing} reassign_posting_missing, "
            f"{self.live_vectors} live vectors",
            f"  self-recall: {self.self_recall:.3f}",
        ]
        if self.reassign_job_rows:
            rows = self.reassign_job_rows
            lines.append(
                f"  reassign rows/job: mean {sum(rows) / len(rows):.1f}, "
                f"max {max(rows)} over {len(rows)} jobs"
            )
        if self.errors:
            lines.append(f"  foreground errors: {self.errors[:3]}")
        if self.worker_errors:
            lines.append(f"  worker errors: {self.worker_errors[:3]}")
        if self.invariants is not None and not self.invariants.ok:
            lines.extend(f"  invariant: {f}" for f in self.invariants.failures)
        return "\n".join(lines)


def _initial_dataset(config: StressConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(config.seed)
    centers = rng.normal(scale=6.0, size=(4, config.dim)).astype(np.float32)
    assignment = rng.integers(0, 4, size=config.initial_vectors)
    vectors = (
        centers[assignment]
        + rng.normal(scale=0.5, size=(config.initial_vectors, config.dim))
    ).astype(np.float32)
    return vectors, centers


def _foreground_worker(
    index: SPFreshIndex,
    config: StressConfig,
    thread_id: int,
    centers: np.ndarray,
    report: StressReport,
    counts_lock: threading.Lock,
) -> None:
    """One seeded foreground client: mixed inserts/deletes/searches."""
    schedule = random.Random(config.seed * 7919 + thread_id)
    vec_rng = np.random.default_rng(config.seed * 104729 + thread_id)
    base_id = 1_000_000 * (thread_id + 1)
    next_id = 0
    my_live: list[int] = []
    inserts = deletes = searches = 0
    try:
        for op in range(config.ops_per_thread):
            roll = schedule.random()
            center = centers[schedule.randrange(len(centers))]
            if roll < config.insert_weight or not my_live:
                vid = base_id + next_id
                next_id += 1
                vector = (
                    center + vec_rng.normal(scale=0.3, size=config.dim)
                ).astype(np.float32)
                index.insert(vid, vector)
                my_live.append(vid)
                inserts += 1
            elif roll < config.insert_weight + config.delete_weight:
                vid = my_live.pop(schedule.randrange(len(my_live)))
                index.delete(vid)
                deletes += 1
            else:
                query = (
                    center + vec_rng.normal(scale=0.5, size=config.dim)
                ).astype(np.float32)
                if config.batch_search_every and op % config.batch_search_every == 0:
                    index.query(
                        QueryRequest(
                            vectors=query[None, :],
                            k=config.search_k,
                            nprobe=config.nprobe,
                        )
                    )
                else:
                    index.query(
                        QueryRequest.single(
                            query, k=config.search_k, nprobe=config.nprobe
                        )
                    )
                searches += 1
    except Exception as exc:  # noqa: BLE001 — report, don't kill the run
        with counts_lock:
            report.errors.append(f"thread {thread_id}: {exc!r}")
    with counts_lock:
        report.inserts += inserts
        report.deletes += deletes
        report.searches += searches


def _self_recall(index: SPFreshIndex, config: StressConfig) -> float:
    """Fraction of sampled live vectors that find themselves via search."""
    live_ids = index.version_map.live_ids()
    if len(live_ids) == 0:
        return 1.0
    rng = np.random.default_rng(config.seed + 17)
    take = min(config.recall_samples, len(live_ids))
    sampled = set(int(v) for v in rng.choice(live_ids, size=take, replace=False))
    vectors: dict[int, np.ndarray] = {}
    from repro.spann.postings import live_view  # local import: avoid cycle

    for pid in index.controller.posting_ids():
        data, _ = index.controller.get(pid)
        live = live_view(data, index.version_map)
        for row, vid in enumerate(live.ids):
            vid = int(vid)
            if vid in sampled and vid not in vectors:
                vectors[vid] = live.vectors[row]
    nprobe = max(config.nprobe, 16)
    found = 0
    for vid, vector in vectors.items():
        result = index.query(
            QueryRequest.single(vector, k=10, nprobe=nprobe)
        ).result
        if vid in set(int(i) for i in result.ids):
            found += 1
    return found / take if take else 1.0


def run_stress(config: StressConfig | None = None) -> StressReport:
    """Run one seeded chaos workload end to end and audit the result."""
    config = config or StressConfig()
    report = StressReport(config=config)
    vectors, centers = _initial_dataset(config)
    index = SPFreshIndex.build(vectors, config=config.build_index_config())
    chaos = ChaosSchedule(
        seed=config.seed,
        yield_probability=config.chaos_yield_probability,
        sleep_probability=config.chaos_sleep_probability,
        max_sleep_us=config.chaos_max_sleep_us,
    ).install(index)

    put = index.job_queue.put

    def counting_put(job: object) -> bool:
        if isinstance(job, ReassignJob):
            report.reassign_job_rows.append(len(job.vector_ids))
        return put(job)

    index.job_queue.put = counting_put
    counts_lock = threading.Lock()
    started = time.perf_counter()
    index.start(config.background_workers)
    threads = [
        threading.Thread(
            target=_foreground_worker,
            args=(index, config, t, centers, report, counts_lock),
            name=f"stress-fg-{t}",
        )
        for t in range(config.foreground_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    index.stop()
    report.duration_s = time.perf_counter() - started

    report.worker_errors = [repr(e) for e in index.rebuilder.worker_errors]
    report.invariants = check_invariants(index, seed=config.seed)
    report.self_recall = _self_recall(index, config)
    report.chaos_calls = chaos.calls
    report.chaos_yields = chaos.yields
    report.lock_recycles = index.locks.lock_recycles
    report.reassign_posting_missing = index.stats.reassign_posting_missing
    report.live_vectors = index.live_vector_count
    return report


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--threads", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--ops", type=int, default=150)
    args = parser.parse_args(argv)
    failures = 0
    for seed in args.seeds:
        report = run_stress(
            StressConfig(
                seed=seed,
                foreground_threads=args.threads,
                background_workers=args.workers,
                ops_per_thread=args.ops,
            )
        )
        print(report.summary())
        failures += 0 if report.ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
