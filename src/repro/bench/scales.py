"""Shared workload-scale presets for the figure benches and the perf harness.

One place defines how big a benchmark run is, so the pytest figure benches
(`benchmarks/conftest.py`) and the perf-regression harness
(`repro.bench.perf`) agree on what "small"/"quick"/"large" mean and CI
lanes can pick a scale by name: the per-push perf lane runs `quick`, the
nightly lane `full`, the unit tests `tiny`. The harness's `CLAIMS` must
hold at all three.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchScale:
    """Knobs of the day-series figure benches (Figures 7/9 style)."""

    base_vectors: int
    days: int
    daily_rate: float
    queries: int
    stress_base: int
    stress_days: int


SCALES = {
    "small": BenchScale(
        base_vectors=4000, days=12, daily_rate=0.015, queries=50,
        stress_base=12000, stress_days=6,
    ),
    "large": BenchScale(
        base_vectors=10000, days=30, daily_rate=0.01, queries=100,
        stress_base=40000, stress_days=10,
    ),
}


@dataclass(frozen=True)
class PerfScale:
    """Knobs of one perf-harness run (`repro.bench.perf`).

    Everything here feeds seeded generators, so a (scale, seed) pair fully
    determines every ``BENCH_*.json``.
    """

    name: str
    base_vectors: int
    dim: int
    queries: int  # query-set size (the quantized scenario caps it at 200)
    batch_size: int  # queries per batched query() in the search scenario
    updates: int  # insert/delete ops in the update scenario
    storm_inserts: int  # hot-cluster burst size in the rebalance scenario
    recovery_updates: int  # WAL'd updates replayed in the recovery scenario
    serve_requests: int = 2000  # open-loop arrivals in the serving scenario
    serve_rate_qps: float = 6000.0  # mean offered load of the arrival trace
    serve_workers: int = 4  # pool size in the serving_concurrent scenario
    # Saturating offered load for the concurrency scenario: deliberately
    # far above the whole K-worker pool's drain rate so goodput scales
    # with K (tuned per tier: roughly 10x one worker's drain rate).
    serve_saturate_qps: float = 120_000.0
    k: int = 10
    nprobe: int = 8
    cluster_shards: int = 4  # shard count in the cluster scenario
    cluster_nprobe: int = 2  # shards probed per routed query
    cluster_updates: int = 200  # churn ops before the split/audit phase


PERF_SCALES = {
    # CI-tier run and the default of `repro perf --scale`; a couple of
    # minutes end to end.
    "quick": PerfScale(
        name="quick",
        base_vectors=4000,
        dim=32,
        queries=400,
        batch_size=32,
        updates=2400,
        storm_inserts=900,
        recovery_updates=600,
        serve_requests=6000,
        serve_rate_qps=6000.0,
        serve_saturate_qps=120_000.0,
    ),
    # Unit-test tier: seconds, still exercises every metric.
    "tiny": PerfScale(
        name="tiny",
        base_vectors=600,
        dim=8,
        queries=60,
        batch_size=16,
        updates=220,
        storm_inserts=160,
        recovery_updates=80,
        serve_requests=500,
        serve_rate_qps=12000.0,
        serve_saturate_qps=250_000.0,
    ),
    # Nightly CI tier and local deep dives.
    "full": PerfScale(
        name="full",
        base_vectors=6000,
        dim=32,
        queries=1000,
        batch_size=64,
        updates=6000,
        storm_inserts=2400,
        recovery_updates=1500,
        serve_requests=20000,
        serve_rate_qps=8000.0,
        serve_saturate_qps=100_000.0,
    ),
}
