"""Deterministic perf-regression harness: seeded scenarios → ``BENCH_*.json``.

The simulation substrate makes performance *reproducible*: device latency,
I/O amplification, ParallelGET waves, probe counts, and LIRE rebalancing
work are all functions of the seeded workload, not of the machine the
bench runs on. This harness exploits that to give the repo a quantitative
perf trajectory that CI can gate on:

* each **scenario** runs a seeded workload over the real stack (searcher,
  updater, LIRE split/merge/reassign, WAL + recovery, posting cache) and
  records two metric classes:

  - ``deterministic`` — simulated latencies (percentiles), IOStats
    read/write amplification, wave counts, postings probed, rebalance
    counters, recall against brute force. Bit-stable under a fixed seed;
    **safe to gate on**.
  - ``wall_clock`` — ops/sec via ``time.perf_counter``. Machine noise;
    **informational only**, never gated.

* results land as ``BENCH_<scenario>.json`` (stable schema, sorted keys)
  so every later optimization PR diffs against the same files;

* ``--compare baseline_dir/ --tolerance 0.05`` exits nonzero when any
  deterministic metric regresses beyond tolerance — the CI perf lane's
  gate.

Run from the CLI::

    PYTHONPATH=src python -m repro.bench.perf --quick --out bench-out
    PYTHONPATH=src python -m repro.bench.perf --compare baseline/ --tolerance 0.05
"""

from __future__ import annotations

import argparse
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import QueryRequest
from repro.bench.reporting import format_markdown_table
from repro.bench.scales import PERF_SCALES, PerfScale
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.datasets import exact_knn, make_sift_like
from repro.metrics.latency import percentile_metrics
from repro.metrics.recall import recall_at_k
from repro.spann.searcher import SpannSearcher
from repro.storage import CachedBlockController
from repro.storage.snapshot import SnapshotManager
from repro.storage.wal import WriteAheadLog

SCHEMA_VERSION = 1
FILE_PREFIX = "BENCH_"

# Deterministic metrics are gated lower-is-better unless named here.
_HIGHER_IS_BETTER_SUFFIXES = (
    "recall_at_k",
    "recall_ratio",
    "hit_rate",
    "speedup",
    "goodput_qps",
    "answered_qps",
    "batch_size_mean",
)


@dataclass
class ScenarioResult:
    """One scenario's measurements, split by gating class."""

    scenario: str
    config: dict
    deterministic: dict[str, float]
    wall_clock: dict[str, float]

    def directions(self) -> dict[str, str]:
        return {
            name: (
                "higher"
                if name.endswith(_HIGHER_IS_BETTER_SUFFIXES)
                else "lower"
            )
            for name in self.deterministic
        }

    def to_document(self) -> dict:
        """The ``BENCH_*.json`` payload (stable schema, gate policy inline)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "generated_by": "repro.bench.perf",
            "scenario": self.scenario,
            "config": self.config,
            "deterministic": self.deterministic,
            "directions": self.directions(),
            "wall_clock": self.wall_clock,
            "gating": {
                "deterministic": "gate",
                "wall_clock": "informational",
            },
        }


def _round(value: float, decimals: int = 3) -> float:
    return round(float(value), decimals)


def _base_config(scale: PerfScale, seed: int, **overrides) -> SPFreshConfig:
    base = dict(
        dim=scale.dim,
        seed=seed,
        ssd_blocks=1 << 16,
        centroid_index_kind="brute",
    )
    base.update(overrides)
    return SPFreshConfig(**base).validate()


def _queries(dataset, scale: PerfScale, seed: int) -> np.ndarray:
    """Seeded query set: perturbed samples of the base distribution."""
    rng = np.random.default_rng(seed + 1)
    picks = rng.integers(0, len(dataset.base), size=scale.queries)
    noise = rng.normal(scale=0.05, size=(scale.queries, scale.dim))
    return (dataset.base[picks] + noise).astype(np.float32)


def _scenario_config(scale: PerfScale, seed: int, config: SPFreshConfig) -> dict:
    return {
        "scale": scale.name,
        "seed": seed,
        "base_vectors": scale.base_vectors,
        "dim": scale.dim,
        "k": scale.k,
        "nprobe": scale.nprobe,
        "max_posting_size": config.max_posting_size,
        "min_posting_size": config.min_posting_size,
        "read_latency_us": config.read_latency_us,
        "write_latency_us": config.write_latency_us,
        "queue_depth": config.queue_depth,
    }


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def scenario_search(scale: PerfScale, seed: int) -> ScenarioResult:
    """Single and batched search over a freshly built index."""
    dataset = make_sift_like(scale.base_vectors, 0, dim=scale.dim, seed=seed)
    config = _base_config(scale, seed)
    index = SPFreshIndex.build(dataset.base, config=config)
    queries = _queries(dataset, scale, seed)
    truth = exact_knn(
        dataset.base, np.arange(scale.base_vectors), queries, scale.k
    )

    latencies: list[float] = []
    io_latencies: list[float] = []
    probed: list[int] = []
    scanned: list[int] = []
    result_ids = []
    before = index.ssd.stats.snapshot()
    wall_start = time.perf_counter()
    for query in queries:
        result = index.query(
            QueryRequest.single(query, k=scale.k, nprobe=scale.nprobe)
        ).result
        latencies.append(result.latency_us)
        io_latencies.append(result.io_latency_us)
        probed.append(result.postings_probed)
        scanned.append(result.entries_scanned)
        result_ids.append(result.ids)
    single_wall = time.perf_counter() - wall_start
    single_window = index.ssd.stats.since(before)

    batch_latencies: list[float] = []
    batch_ids = []
    before = index.ssd.stats.snapshot()
    wall_start = time.perf_counter()
    for start in range(0, len(queries), scale.batch_size):
        chunk = queries[start : start + scale.batch_size]
        for result in index.query(
            QueryRequest(vectors=chunk, k=scale.k, nprobe=scale.nprobe)
        ):
            batch_latencies.append(result.latency_us)
            batch_ids.append(result.ids)
    batch_wall = time.perf_counter() - wall_start
    batch_window = index.ssd.stats.since(before)

    # Read amplification: device bytes fetched per byte of result payload.
    result_bytes = len(queries) * scale.k * scale.dim * 4
    deterministic = {
        **percentile_metrics(latencies, "single_latency_us"),
        **percentile_metrics(io_latencies, "single_io_latency_us"),
        **percentile_metrics(batch_latencies, "batch_latency_us"),
        "single_recall_at_k": _round(recall_at_k(result_ids, truth, scale.k), 4),
        "batch_recall_at_k": _round(recall_at_k(batch_ids, truth, scale.k), 4),
        "single_postings_probed_mean": _round(np.mean(probed)),
        "single_entries_scanned_mean": _round(np.mean(scanned)),
        "single_io_waves_mean": _round(
            np.mean(io_latencies) / config.read_latency_us
        ),
        "single_read_amplification": _round(
            single_window.read_amplification(result_bytes)
        ),
        "batch_read_amplification": _round(
            batch_window.read_amplification(result_bytes)
        ),
        **single_window.to_metrics("single_io"),
        **batch_window.to_metrics("batch_io"),
    }
    wall_clock = {
        "single_search_qps": _round(
            len(queries) / single_wall if single_wall > 0 else 0.0
        ),
        "batch_search_qps": _round(
            len(queries) / batch_wall if batch_wall > 0 else 0.0
        ),
    }
    return ScenarioResult(
        scenario="search",
        config={**_scenario_config(scale, seed, config), "queries": len(queries)},
        deterministic=deterministic,
        wall_clock=wall_clock,
    )


def scenario_update(scale: PerfScale, seed: int) -> ScenarioResult:
    """Interleaved insert/delete churn through the foreground updater."""
    dataset = make_sift_like(
        scale.base_vectors, scale.updates, dim=scale.dim, seed=seed
    )
    # Tight posting geometry so the churn actually crosses split/merge
    # thresholds and the LIRE counters carry signal.
    config = _base_config(
        scale,
        seed,
        max_posting_size=48,
        min_posting_size=4,
        build_target_posting_size=24,
    )
    index = SPFreshIndex.build(dataset.base, config=config)
    rng = np.random.default_rng(seed + 2)

    insert_lat: list[float] = []
    delete_lat: list[float] = []
    deletable = list(range(scale.base_vectors))
    next_pool = 0
    stats_before = index.stats.snapshot()
    io_before = index.ssd.stats.snapshot()
    wall_start = time.perf_counter()
    for op in range(scale.updates):
        # 2:1 insert:delete mix keeps the index growing while exercising
        # tombstones; the schedule is fully determined by the seed.
        if op % 3 != 2 and next_pool < len(dataset.pool):
            insert_lat.append(
                index.insert(1_000_000 + next_pool, dataset.pool[next_pool])
            )
            next_pool += 1
        elif deletable:
            victim = deletable.pop(int(rng.integers(len(deletable))))
            delete_lat.append(index.delete(victim))
    index.drain()
    wall = time.perf_counter() - wall_start
    window = index.ssd.stats.since(io_before)
    delta = index.stats.snapshot().delta(stats_before)

    inserted_bytes = len(insert_lat) * scale.dim * 4
    deterministic = {
        **percentile_metrics(insert_lat, "insert_latency_us"),
        **percentile_metrics(delete_lat, "delete_latency_us"),
        "splits": float(delta.splits),
        "merges": float(delta.merges),
        "reassign_evaluated": float(delta.reassign_evaluated),
        "reassign_executed": float(delta.reassign_executed),
        "appends": float(delta.appends),
        "write_amplification": _round(
            window.write_amplification(inserted_bytes)
        ),
        "background_io_us": _round(index.rebuilder.background_io_us),
        **window.to_metrics("io"),
    }
    wall_clock = {
        "updates_per_s": _round(scale.updates / wall if wall > 0 else 0.0),
    }
    return ScenarioResult(
        scenario="update",
        config={
            **_scenario_config(scale, seed, config),
            "updates": scale.updates,
            "inserts": len(insert_lat),
            "deletes": len(delete_lat),
        },
        deterministic=deterministic,
        wall_clock=wall_clock,
    )


def scenario_rebalance(scale: PerfScale, seed: int) -> ScenarioResult:
    """Split+merge+reassign storm: hot-cluster burst, then mass deletion."""
    dataset = make_sift_like(
        max(scale.base_vectors // 2, 200), 0, dim=scale.dim, seed=seed
    )
    # Tight posting geometry so the burst forces real rebalancing work.
    config = _base_config(
        scale,
        seed,
        max_posting_size=48,
        min_posting_size=4,
        build_target_posting_size=24,
        reassign_range=12,
    )
    index = SPFreshIndex.build(dataset.base, config=config)
    rng = np.random.default_rng(seed + 3)
    hot_center = dataset.cluster_centers[0]

    stats_before = index.stats.snapshot()
    io_before = index.ssd.stats.snapshot()
    postings_before = index.num_postings
    wall_start = time.perf_counter()
    hot_ids = []
    for i in range(scale.storm_inserts):
        vector = (
            hot_center + rng.normal(scale=0.2, size=scale.dim)
        ).astype(np.float32)
        vid = 2_000_000 + i
        index.insert(vid, vector)
        hot_ids.append(vid)
    index.drain()
    split_window = index.ssd.stats.since(io_before)

    # Delete most of the burst, sweep queries over the hot region (the
    # paper's searcher-triggered merge path), then run the proactive
    # maintenance scanner so postings queries missed are merged/GC'd too.
    victims = rng.permutation(len(hot_ids))[: int(len(hot_ids) * 0.9)]
    for pick in victims:
        index.delete(hot_ids[int(pick)])
    probes = (
        hot_center + rng.normal(scale=0.3, size=(64, scale.dim))
    ).astype(np.float32)
    for query in probes:
        index.query(QueryRequest.single(query, k=scale.k, nprobe=scale.nprobe))
    index.drain()
    from repro.core.maintenance import MaintenanceScanner

    scan = MaintenanceScanner(index).scan()
    index.drain()
    wall = time.perf_counter() - wall_start
    window = index.ssd.stats.since(io_before)
    delta = index.stats.snapshot().delta(stats_before)
    sizes = index.posting_sizes()

    deterministic = {
        "splits": float(delta.splits),
        "split_jobs": float(delta.split_jobs),
        "merges": float(delta.merges),
        "merge_jobs": float(delta.merge_jobs),
        "reassign_evaluated": float(delta.reassign_evaluated),
        "reassign_scheduled": float(delta.reassign_scheduled),
        "reassign_executed": float(delta.reassign_executed),
        "split_cascade_max_depth": float(delta.split_cascade_max_depth),
        "scan_merges_scheduled": float(scan.merges_scheduled),
        "scan_gc_rewrites": float(scan.gc_rewrites),
        "scan_dead_entries_seen": float(scan.dead_entries_seen),
        "background_io_us": _round(index.rebuilder.background_io_us),
        "postings_before": float(postings_before),
        "postings_after": float(index.num_postings),
        "posting_size_mean": _round(sizes.mean()),
        "posting_size_max": float(sizes.max()),
        "split_phase_block_writes": float(split_window.block_writes),
        **window.to_metrics("io"),
    }
    wall_clock = {
        "storm_ops_per_s": _round(
            (scale.storm_inserts + len(victims)) / wall if wall > 0 else 0.0
        ),
    }
    return ScenarioResult(
        scenario="rebalance",
        config={
            **_scenario_config(scale, seed, config),
            "storm_inserts": scale.storm_inserts,
            "storm_deletes": len(victims),
        },
        deterministic=deterministic,
        wall_clock=wall_clock,
    )


def scenario_fresh_tier(scale: PerfScale, seed: int) -> ScenarioResult:
    """Insert-storm write amplification with vs. without the memory tier.

    The same seeded hot-cluster storm is driven through two indexes built
    from the same base set: a baseline (classic per-insert posting append)
    and one with the LSM-style fresh tier enabled (inserts buffer in RAM,
    a flush batch-appends every ``fresh_flush_threshold`` vectors — see
    docs/fresh-tier.md). Gated metrics cover the write-amplification win,
    insert-latency percentiles before/after, recall at the regular probe
    width for both runs, and two zero-tolerance parity counters measured
    on the fresh index with a partially resident tier: batched vs. single
    search, and tier-resident vs. eagerly-flushed search (both must be
    bit-identical, so the expected value is 0).
    """
    dataset = make_sift_like(
        max(scale.base_vectors // 2, 200), 0, dim=scale.dim, seed=seed
    )
    base_n = len(dataset.base)
    hot_center = dataset.cluster_centers[0]
    # Sub-threshold tail inserted after the measured storm so the parity
    # sweep always sees a non-empty tier regardless of scale.
    tail = 24
    threshold = 64

    def storm_vectors() -> np.ndarray:
        rng = np.random.default_rng(seed + 5)
        return (
            hot_center
            + rng.normal(scale=0.25, size=(scale.storm_inserts + tail, scale.dim))
        ).astype(np.float32)

    def run(enable_tier: bool):
        # Tight posting geometry so the storm crosses split thresholds the
        # way the update/rebalance scenarios do; no search budget so the
        # parity sweeps scan everything they probe.
        config = _base_config(
            scale,
            seed,
            max_posting_size=48,
            min_posting_size=4,
            build_target_posting_size=24,
            search_latency_budget_us=None,
            enable_fresh_tier=enable_tier,
            fresh_flush_threshold=threshold,
        )
        index = SPFreshIndex.build(dataset.base, config=config)
        vectors = storm_vectors()
        stats_before = index.stats.snapshot()
        io_before = index.ssd.stats.snapshot()
        wall_start = time.perf_counter()
        latencies = [
            index.insert(4_000_000 + i, vectors[i])
            for i in range(scale.storm_inserts)
        ]
        index.drain()
        wall = time.perf_counter() - wall_start
        window = index.ssd.stats.since(io_before)
        # The tail rides outside the measured window: it stays buffered in
        # the fresh run (below threshold) and lands on disk in the baseline,
        # keeping the two live sets identical for the recall sweep.
        for i in range(scale.storm_inserts, len(vectors)):
            index.insert(4_000_000 + i, vectors[i])
        index.drain()
        delta = index.stats.snapshot().delta(stats_before)
        return index, config, latencies, window, delta, wall

    base_index, config, base_lat, base_window, base_delta, base_wall = run(False)
    fresh_index, _, fresh_lat, fresh_window, fresh_delta, fresh_wall = run(True)

    # Recall at the regular probe width over the identical live sets.
    queries = _queries(dataset, scale, seed)
    all_vectors = np.concatenate([dataset.base, storm_vectors()])
    all_ids = np.concatenate(
        [
            np.arange(base_n, dtype=np.int64),
            4_000_000 + np.arange(scale.storm_inserts + tail, dtype=np.int64),
        ]
    )
    truth = exact_knn(all_vectors, all_ids, queries, scale.k)
    base_ids = [
        base_index.query(
            QueryRequest.single(q, k=scale.k, nprobe=scale.nprobe)
        ).ids
        for q in queries
    ]
    fresh_ids = [
        fresh_index.query(
            QueryRequest.single(q, k=scale.k, nprobe=scale.nprobe)
        ).ids
        for q in queries
    ]

    # Parity sweeps on the fresh index: full probe, exact merge, tier still
    # partially resident. Mismatches gate at zero.
    rng = np.random.default_rng(seed + 6)
    parity_queries = np.concatenate(
        [
            queries[:16],
            (hot_center + rng.normal(scale=0.3, size=(16, scale.dim))).astype(
                np.float32
            ),
        ]
    )
    tier_resident = len(fresh_index.fresh_tier)
    pre = [
        fresh_index.query(QueryRequest.single(q, k=scale.k, nprobe=10**6)).result
        for q in parity_queries
    ]
    batched = list(
        fresh_index.query(
            QueryRequest(vectors=parity_queries, k=scale.k, nprobe=10**6)
        )
    )
    batch_single_mismatches = sum(
        1
        for s, b in zip(pre, batched)
        if not (
            np.array_equal(s.ids, b.ids)
            and np.array_equal(s.distances, b.distances)
        )
    )
    flushed_for_parity = fresh_index.flush_fresh_tier()
    post = [
        fresh_index.query(QueryRequest.single(q, k=scale.k, nprobe=10**6)).result
        for q in parity_queries
    ]
    search_parity_mismatches = sum(
        1
        for s, p in zip(pre, post)
        if not (
            np.array_equal(s.ids, p.ids)
            and np.array_equal(s.distances, p.distances)
        )
    )

    inserted_bytes = scale.storm_inserts * scale.dim * 4
    base_amp = base_window.write_amplification(inserted_bytes)
    fresh_amp = fresh_window.write_amplification(inserted_bytes)
    deterministic = {
        "baseline_write_amplification": _round(base_amp),
        "fresh_write_amplification": _round(fresh_amp),
        "fresh_write_amp_speedup": _round(
            base_amp / fresh_amp if fresh_amp > 0 else 0.0
        ),
        **percentile_metrics(base_lat, "baseline_insert_latency_us"),
        **percentile_metrics(fresh_lat, "fresh_insert_latency_us"),
        "baseline_recall_at_k": _round(
            recall_at_k(base_ids, truth, scale.k), 4
        ),
        "fresh_recall_at_k": _round(recall_at_k(fresh_ids, truth, scale.k), 4),
        "search_parity_mismatches": float(search_parity_mismatches),
        "batch_single_mismatches": float(batch_single_mismatches),
        "tier_resident_at_sweep": float(tier_resident),
        "parity_flush_vectors": float(flushed_for_parity),
        "fresh_flushes": float(fresh_delta.fresh_flushes),
        "fresh_flushed_vectors": float(fresh_delta.fresh_flushed_vectors),
        "fresh_flush_appends": float(fresh_delta.fresh_flush_appends),
        "baseline_appends": float(base_delta.appends),
        "fresh_appends": float(fresh_delta.appends),
        "baseline_splits": float(base_delta.splits),
        "fresh_splits": float(fresh_delta.splits),
        **base_window.to_metrics("baseline_io"),
        **fresh_window.to_metrics("fresh_io"),
    }
    wall_clock = {
        "baseline_storm_ops_per_s": _round(
            scale.storm_inserts / base_wall if base_wall > 0 else 0.0
        ),
        "fresh_storm_ops_per_s": _round(
            scale.storm_inserts / fresh_wall if fresh_wall > 0 else 0.0
        ),
    }
    return ScenarioResult(
        scenario="fresh_tier",
        config={
            **_scenario_config(scale, seed, config),
            "storm_inserts": scale.storm_inserts,
            "tail_inserts": tail,
            "fresh_flush_threshold": threshold,
            "parity_queries": len(parity_queries),
        },
        deterministic=deterministic,
        wall_clock=wall_clock,
    )


def scenario_quantized(scale: PerfScale, seed: int) -> ScenarioResult:
    """Quantized posting scans vs exact, at equal probe width.

    This scenario pins its own workload geometry instead of the generic
    ``scale`` one: SIFT-like 128-dimensional vectors and paper-realistic
    posting lengths (hundreds of entries per posting). That is the regime
    the tentpole targets — with 32-dimensional vectors and ~50-entry
    postings, per-posting bookkeeping dominates and the code/vector byte
    asymmetry (a 25-byte PQ entry vs a 521-byte vector entry) is
    invisible. Probe width, k, and the query set are identical for both
    paths.

    Two same-seed builds over the same base set — one with the plain v1
    codec, one with the sectioned quantized codec (PQ, 16 subspaces) —
    run the identical query sweep with no latency budget. The simulated
    IO sweep is single-query: per-query read accounting is what a
    serving system pays per request, whereas a batched sweep fetches
    each posting once for the whole batch and amortizes the very reads
    the codec shrinks. Gated metrics (docs/quantization.md):

    * recall for both, plus ``quant_recall_ratio`` (quantized ÷ exact;
      CI asserts >= 0.95 explicitly);
    * simulated read bytes per query for both, plus the byte and
      simulated-latency speedups (the IO win is what quantization buys:
      scans touch only the compact code section, then fetch only the
      ``k * rerank_k`` selected rows);
    * ``rerank_all_mismatches``: with ``rerank_k`` large enough to rerank
      every scanned candidate, the quantized path must be bit-identical
      (ids and distances) to the exact index — expected 0;
    * ``batch_parity_mismatches``: the batched quantized path must agree
      with the single-query path bit for bit — expected 0;
    * code/vector coherence after LIRE churn (inserts + deletes + drain)
      audited by ``check_invariants`` — expected 0 mismatching postings;
    * a recall-vs-bytes ablation (exact / PQ m=8 / PQ m=16 / SQ8).

    Wall clock rides along informationally (the two-clock model: wall
    clock never gates) but is the headline demonstration: the batched
    sweep's profiler attributes time per stage, and the quantized
    ``scan`` stage (ADC over codes) must come in under the exact path's
    full-dimension posting scans. Rerank cost is reported separately —
    it is refinement on fetched rows, not posting traversal.
    """
    from repro.core.invariants import check_invariants

    # Scenario-local geometry (see docstring). The base count scales with
    # the tier but is capped: posting length, not corpus size, is what
    # the codec comparison is sensitive to.
    dim = 128
    n_base = min(16_000, max(3_000, 4 * scale.base_vectors))
    n_queries = min(scale.queries, 200)
    nprobe = 4
    subspaces = 16
    rerank_k = 24

    dataset = make_sift_like(n_base, 0, dim=dim, seed=seed)
    rng = np.random.default_rng(seed + 1)
    picks = rng.integers(0, n_base, size=n_queries)
    noise = rng.normal(scale=0.05, size=(n_queries, dim))
    queries = (dataset.base[picks] + noise).astype(np.float32)
    truth = exact_knn(dataset.base, np.arange(n_base), queries, scale.k)

    def build(**overrides):
        config = _base_config(
            scale,
            seed,
            dim=dim,
            ssd_blocks=1 << 17,
            build_target_posting_size=512,
            max_posting_size=4096,
            search_latency_budget_us=None,
            **overrides,
        )
        return SPFreshIndex.build(dataset.base, config=config), config

    exact_index, config = build()
    quant_index, quant_config = build(
        quant_enabled=True,
        quant_kind="pq",
        quant_subspaces=subspaces,
        quant_rerank_k=rerank_k,
    )

    def sweep(index):
        """Single-query sweep: per-query simulated IO accounting."""
        ids, latencies, io_lat, scanned, reranked = [], [], [], [], []
        before = index.ssd.stats.snapshot()
        for q in queries:
            r = index.query(
                QueryRequest.single(q, k=scale.k, nprobe=nprobe)
            ).result
            ids.append(r.ids)
            latencies.append(r.latency_us)
            io_lat.append(r.io_latency_us)
            scanned.append(r.entries_scanned)
            reranked.append(r.reranked_entries)
        window = index.ssd.stats.since(before)
        return ids, latencies, io_lat, scanned, reranked, window

    def batched_sweep(index, runs=3):
        """Batched sweep: wall clock + per-stage profiler attribution."""
        request = QueryRequest(vectors=queries, k=scale.k, nprobe=nprobe)
        response = index.query(request)  # warm caches before timing
        index.profiler.enabled = True
        best_wall, best_stages = math.inf, {}
        for _ in range(runs):
            index.profiler.reset()
            start = time.perf_counter()
            response = index.query(request)
            wall = time.perf_counter() - start
            if wall < best_wall:
                best_wall = wall
                best_stages = {
                    stage: stats["total_us"] / 1e3
                    for stage, stats in index.profiler.snapshot().items()
                }
        index.profiler.enabled = False
        return response, best_wall, best_stages

    e_ids, e_lat, e_io, e_scanned, _, e_window = sweep(exact_index)
    q_ids, q_lat, q_io, q_scanned, q_reranked, q_window = sweep(quant_index)
    exact_recall = recall_at_k(e_ids, truth, scale.k)
    quant_recall = recall_at_k(q_ids, truth, scale.k)

    e_batch, e_wall, e_stages = batched_sweep(exact_index)
    q_batch, q_wall, q_stages = batched_sweep(quant_index)

    # Batched-vs-single parity: the grouped scan must reproduce the
    # single-query path bit for bit (ids and distances).
    batch_mismatches = 0
    for single_ids, batch_result in zip(q_ids, q_batch.results):
        if not np.array_equal(single_ids, batch_result.ids):
            batch_mismatches += 1

    # Rerank-everything parity: every scanned candidate reranked against
    # exact vectors must reproduce the exact search bit for bit.
    mismatches = 0
    for q in queries[: min(32, len(queries))]:
        exact_r = exact_index.query(
            QueryRequest.single(q, k=scale.k, nprobe=nprobe)
        ).result
        rerank_all = quant_index.query(
            QueryRequest.single(q, k=scale.k, nprobe=nprobe, rerank_k=10**6)
        ).result
        if not (
            np.array_equal(exact_r.ids, rerank_all.ids)
            and np.array_equal(exact_r.distances, rerank_all.distances)
        ):
            mismatches += 1

    # LIRE churn on the quantized index; the auditor's code-coherence
    # check proves splits/merges/GC kept codes in sync with vectors.
    rng = np.random.default_rng(seed + 7)
    churn = max(min(scale.updates // 4, 600), 60)
    for i in range(churn):
        if i % 3 == 2:
            quant_index.delete(int(rng.integers(n_base)))
        else:
            pick = int(rng.integers(n_base))
            vector = (
                dataset.base[pick] + rng.normal(scale=0.1, size=dim)
            ).astype(np.float32)
            quant_index.insert(5_000_000 + i, vector)
    quant_index.drain()
    audit = check_invariants(quant_index)

    # Recall-vs-bytes ablation: code bytes per vector against recall and
    # per-query read bytes at the regular probe width.
    ablation: dict[str, tuple[int, float, float]] = {
        "exact": (dim * 4, exact_recall, e_window.bytes_read / n_queries),
        "pq_m16": (
            subspaces,
            quant_recall,
            q_window.bytes_read / n_queries,
        ),
    }
    ablation_overrides = {
        "pq_m8": dict(
            quant_enabled=True,
            quant_kind="pq",
            quant_subspaces=8,
            quant_rerank_k=rerank_k,
        ),
        "sq8": dict(
            quant_enabled=True, quant_kind="sq8", quant_rerank_k=rerank_k
        ),
    }
    for label, overrides in ablation_overrides.items():
        index, _ = build(**overrides)
        before = index.ssd.stats.snapshot()
        ids = [
            index.query(
                QueryRequest.single(q, k=scale.k, nprobe=nprobe)
            ).ids
            for q in queries
        ]
        window = index.ssd.stats.since(before)
        ablation[label] = (
            index.quantizer.code_bytes,
            recall_at_k(ids, truth, scale.k),
            window.bytes_read / n_queries,
        )

    deterministic = {
        "exact_recall_at_k": _round(exact_recall, 4),
        "quant_recall_at_k": _round(quant_recall, 4),
        "quant_recall_ratio": _round(
            quant_recall / exact_recall if exact_recall > 0 else 0.0, 4
        ),
        "rerank_all_mismatches": float(mismatches),
        "batch_parity_mismatches": float(batch_mismatches),
        "quant_code_mismatch_postings": float(len(audit.code_mismatches)),
        "quant_lost_vectors": float(len(audit.lost_vectors)),
        "exact_read_bytes_per_query": _round(e_window.bytes_read / n_queries),
        "quant_read_bytes_per_query": _round(q_window.bytes_read / n_queries),
        "quant_read_bytes_speedup": _round(
            e_window.bytes_read / q_window.bytes_read
            if q_window.bytes_read > 0
            else 0.0
        ),
        "quant_latency_speedup": _round(
            float(np.mean(e_lat)) / float(np.mean(q_lat))
            if np.mean(q_lat) > 0
            else 0.0
        ),
        "exact_entries_scanned_mean": _round(np.mean(e_scanned)),
        "quant_entries_scanned_mean": _round(np.mean(q_scanned)),
        "quant_reranked_entries_mean": _round(np.mean(q_reranked)),
        **percentile_metrics(e_lat, "exact_latency_us"),
        **percentile_metrics(q_lat, "quant_latency_us"),
        **percentile_metrics(e_io, "exact_io_latency_us"),
        **percentile_metrics(q_io, "quant_io_latency_us"),
        **{
            f"ablation_{label}_code_bytes": float(bytes_)
            for label, (bytes_, _, _) in ablation.items()
        },
        **{
            f"ablation_{label}_recall_at_k": _round(recall, 4)
            for label, (_, recall, _) in ablation.items()
        },
        **{
            f"ablation_{label}_read_bytes_per_query": _round(per_query)
            for label, (_, _, per_query) in ablation.items()
        },
        **e_window.to_metrics("exact_io"),
        **q_window.to_metrics("quant_io"),
    }
    wall_clock = {
        "exact_batch_wall_ms": _round(e_wall * 1e3),
        "quant_batch_wall_ms": _round(q_wall * 1e3),
        "quant_wall_speedup": _round(e_wall / q_wall if q_wall > 0 else 0.0),
        "exact_scan_ms": _round(e_stages.get("scan", 0.0)),
        "quant_scan_ms": _round(q_stages.get("scan", 0.0)),
        "quant_scan_wall_speedup": _round(
            e_stages.get("scan", 0.0) / q_stages["scan"]
            if q_stages.get("scan")
            else 0.0
        ),
        "quant_rerank_ms": _round(q_stages.get("rerank", 0.0)),
        "quant_tables_ms": _round(q_stages.get("tables", 0.0)),
        **{
            f"exact_stage_{stage}_ms": _round(ms)
            for stage, ms in e_stages.items()
        },
        **{
            f"quant_stage_{stage}_ms": _round(ms)
            for stage, ms in q_stages.items()
        },
    }
    return ScenarioResult(
        scenario="quantized",
        config={
            **_scenario_config(scale, seed, quant_config),
            "base_vectors": n_base,
            "dim": dim,
            "nprobe": nprobe,
            "queries": n_queries,
            "quant_kind": "pq",
            "quant_subspaces": subspaces,
            "quant_rerank_k": rerank_k,
            "build_target_posting_size": 512,
            "churn_updates": churn,
        },
        deterministic=deterministic,
        wall_clock=wall_clock,
    )


def scenario_cluster(scale: PerfScale, seed: int) -> ScenarioResult:
    """Centroid-routed cluster vs broadcast: routing accuracy, splits, procs.

    Builds a :class:`~repro.distributed.ClusterSPFresh` (replication
    factor 2) over the clustered base set and measures the three claims
    the cluster model makes (docs/distributed.md):

    * **routing preserves accuracy** — the routed path probes only
      ``cluster_nprobe`` of the shards per query; its recall against
      brute force must stay within 0.95x of the broadcast oracle's
      (``routing_recall_ratio`` gates >= 0.95 in CI) while
      ``shards_probed_fraction`` stays < 1.0. Simulated latency is
      max-of-probed-shards + route + merge cost, so routing also shows up
      as a gated ``routed_latency_speedup`` over broadcast;
    * **growth preserves conservation** — a seeded hot-region insert
      storm pushes one shard over ``cluster_split_threshold``;
      ``maybe_split()`` carves its centroid group and migrates the
      rerouted vectors, and ``check_cluster_invariants`` audits the
      cross-shard conservation story (``conservation_violations`` gates
      at 0). A post-split routed-vs-broadcast sweep
      (``post_split_recall_ratio``) shows routing survives the topology
      change;
    * **process fan-out is bit-exact** — the same request answered with
      ``query(request, pool=)`` on forked workers (they inherit the
      build-state shards, so no pickling and no divergence) must equal
      the routed path's exact ids and distances
      (``process_parity_mismatches`` gates at 0). The pool is forked
      *before* the parent's sweeps because ``query()`` has maintenance
      side effects. Wall-clock ``process_wall_speedup`` over the serial
      sweep is informational (two-clock model); on platforms without
      ``fork`` the process metrics report 0 mismatches and 0 wall time.
    """
    from repro.core.invariants import check_cluster_invariants
    from repro.distributed import ClusterSPFresh
    from repro.util.workers import fork_available

    dataset = make_sift_like(scale.base_vectors, 0, dim=scale.dim, seed=seed)
    split_threshold = int(
        (scale.base_vectors / scale.cluster_shards + scale.cluster_updates)
        * 0.75
    )
    config = _base_config(
        scale,
        seed,
        cluster_nprobe=scale.cluster_nprobe,
        cluster_replication_factor=2,
        cluster_split_threshold=split_threshold,
    )
    cluster = ClusterSPFresh.build(
        dataset.base, num_shards=scale.cluster_shards, config=config
    )
    queries = _queries(dataset, scale, seed)
    truth = exact_knn(
        dataset.base, np.arange(scale.base_vectors), queries, scale.k
    )
    request = QueryRequest(vectors=queries, k=scale.k, nprobe=scale.nprobe)

    # Fork the worker pool from pristine build state, before any parent
    # sweep can schedule maintenance in the parent's copies. The pooled
    # sweeps go through a second router over the same shard groups: a
    # pooled query advances the read counter and ClusterStats like a
    # serial one, and the serial sweeps' replica picks must not depend on
    # whether this platform can fork. Its counter starts where the first
    # router's does, so the first pooled sweep asks the replicas `routed`
    # asks, in the state `routed` finds them in.
    pooled_router = ClusterSPFresh(
        cluster.groups, cluster.placement, cluster.directory, config
    )
    pool = pooled_router.worker_pool(fork=True) if fork_available() else None

    # Serial routed sweep (also the simulated-metric source). A second
    # timed pass smooths first-touch noise; wall clock is informational,
    # so the extra pass's maintenance side effects are harmless.
    wall_start = time.perf_counter()
    routed = cluster.query(request)
    serial_wall = time.perf_counter() - wall_start
    routed_lat = [r.latency_us for r in routed]
    probed_fraction = cluster.shards_probed_fraction()
    wall_start = time.perf_counter()
    cluster.query(request)
    serial_wall = min(serial_wall, time.perf_counter() - wall_start)

    # The same request on the forked workers; parity against the routed
    # response gates at 0.
    process_mismatches = 0
    process_wall = 0.0
    if pool is not None:
        with pool:
            wall_start = time.perf_counter()
            pooled = pooled_router.query(request, pool=pool)
            process_wall = time.perf_counter() - wall_start
            process_mismatches = sum(
                not (
                    np.array_equal(p.ids, r.ids)
                    and np.array_equal(p.distances, r.distances)
                )
                for p, r in zip(pooled, routed)
            )
            # Warm second pass: the first fork pays copy-on-write page
            # faults for every posting the workers touch; steady state is
            # what the serial-vs-process comparison should show. (On a
            # single-core machine the speedup still sits near 1/fan-out —
            # workers can only interleave; the metric is informational
            # either way.)
            wall_start = time.perf_counter()
            pooled_router.query(request, pool=pool)
            process_wall = min(process_wall, time.perf_counter() - wall_start)

    # Broadcast oracle: every shard answers every query.
    broadcast = cluster.query(request, broadcast=True)
    broadcast_lat = [r.latency_us for r in broadcast]
    routed_recall = recall_at_k([r.ids for r in routed], truth, scale.k)
    broadcast_recall = recall_at_k(
        [r.ids for r in broadcast], truth, scale.k
    )

    # Hot-region growth: concentrated inserts push one shard past the
    # split threshold; the split migrates and the auditor must find the
    # cross-shard books balanced.
    rng = np.random.default_rng(seed + 8)
    hot_center = dataset.cluster_centers[0]
    storm = (
        hot_center + rng.normal(scale=0.2, size=(scale.cluster_updates, scale.dim))
    ).astype(np.float32)
    for i in range(scale.cluster_updates):
        cluster.insert(6_000_000 + i, storm[i])
    shards_before = cluster.num_shards
    splits = cluster.maybe_split()
    cluster.drain()
    audit = check_cluster_invariants(cluster)

    all_vectors = np.concatenate([dataset.base, storm])
    all_ids = np.concatenate(
        [
            np.arange(scale.base_vectors, dtype=np.int64),
            6_000_000 + np.arange(scale.cluster_updates, dtype=np.int64),
        ]
    )
    truth_after = exact_knn(all_vectors, all_ids, queries, scale.k)
    post_routed = cluster.query(request)
    post_broadcast = cluster.query(request, broadcast=True)
    post_routed_recall = recall_at_k(
        [r.ids for r in post_routed], truth_after, scale.k
    )
    post_broadcast_recall = recall_at_k(
        [r.ids for r in post_broadcast], truth_after, scale.k
    )
    cluster.close()

    deterministic = {
        "routed_recall_at_k": _round(routed_recall, 4),
        "broadcast_recall_at_k": _round(broadcast_recall, 4),
        "routing_recall_ratio": _round(
            routed_recall / broadcast_recall if broadcast_recall > 0 else 0.0,
            4,
        ),
        "shards_probed_fraction": _round(probed_fraction, 4),
        **percentile_metrics(routed_lat, "routed_latency_us"),
        **percentile_metrics(broadcast_lat, "broadcast_latency_us"),
        "routed_latency_speedup": _round(
            float(np.mean(broadcast_lat)) / float(np.mean(routed_lat))
            if np.mean(routed_lat) > 0
            else 0.0
        ),
        "process_parity_mismatches": float(process_mismatches),
        "shard_splits": float(splits),
        "migrated_vectors": float(cluster.stats.migrated_vectors),
        "shards_before_split": float(shards_before),
        "shards_after_split": float(cluster.num_shards),
        "conservation_violations": float(audit.conservation_violations),
        "cluster_live_vectors": float(audit.cluster_live_vectors),
        "post_split_recall_ratio": _round(
            post_routed_recall / post_broadcast_recall
            if post_broadcast_recall > 0
            else 0.0,
            4,
        ),
        "post_split_routed_recall_at_k": _round(post_routed_recall, 4),
    }
    wall_clock = {
        "serial_routed_wall_ms": _round(serial_wall * 1e3),
        "process_routed_wall_ms": _round(process_wall * 1e3),
        "process_wall_speedup": _round(
            serial_wall / process_wall if process_wall > 0 else 0.0
        ),
        "process_workers": float(scale.cluster_shards if pool is not None else 0),
    }
    return ScenarioResult(
        scenario="cluster",
        config={
            **_scenario_config(scale, seed, config),
            "queries": len(queries),
            "num_shards": scale.cluster_shards,
            "cluster_nprobe": scale.cluster_nprobe,
            "replication_factor": 2,
            "split_threshold": split_threshold,
            "storm_inserts": scale.cluster_updates,
        },
        deterministic=deterministic,
        wall_clock=wall_clock,
    )


def scenario_recovery(scale: PerfScale, seed: int) -> ScenarioResult:
    """WAL append cost plus snapshot + WAL-replay recovery after a restart."""
    dataset = make_sift_like(
        max(scale.base_vectors // 2, 200),
        scale.recovery_updates,
        dim=scale.dim,
        seed=seed,
    )
    config = _base_config(scale, seed)
    wal = WriteAheadLog()
    snapshots = SnapshotManager()
    index = SPFreshIndex.build(
        dataset.base, config=config, wal=wal, snapshots=snapshots
    )
    index.checkpoint()

    rng = np.random.default_rng(seed + 4)
    wall_start = time.perf_counter()
    for i in range(scale.recovery_updates):
        if i % 4 == 3:
            index.delete(int(rng.integers(len(dataset.base))))
        else:
            index.insert(3_000_000 + i, dataset.pool[i])
    update_wall = time.perf_counter() - wall_start
    wal_bytes = wal.size_bytes()
    live_before = index.live_vector_count

    io_before = index.ssd.stats.snapshot()
    wall_start = time.perf_counter()
    recovered = SPFreshIndex.recover(index.ssd, config, snapshots, wal=wal)
    recovery_wall = time.perf_counter() - wall_start
    window = recovered.ssd.stats.since(io_before)
    report = recovered.last_recovery

    deterministic = {
        "wal_bytes": float(wal_bytes),
        "wal_bytes_per_update": _round(wal_bytes / scale.recovery_updates),
        "wal_records_replayed": float(report.records_replayed),
        "wal_records_skipped": float(report.records_skipped),
        "wal_records_quarantined": float(report.records_quarantined),
        "recovery_apply_errors": float(report.records_failed),
        "live_vectors_recovered": float(recovered.live_vector_count),
        "live_vector_drift": float(
            abs(recovered.live_vector_count - live_before)
        ),
        **window.to_metrics("recovery_io"),
    }
    wall_clock = {
        "logged_updates_per_s": _round(
            scale.recovery_updates / update_wall if update_wall > 0 else 0.0
        ),
        "recovery_s": _round(recovery_wall, 4),
    }
    return ScenarioResult(
        scenario="recovery",
        config={
            **_scenario_config(scale, seed, config),
            "recovery_updates": scale.recovery_updates,
        },
        deterministic=deterministic,
        wall_clock=wall_clock,
    )


def scenario_cache(scale: PerfScale, seed: int) -> ScenarioResult:
    """Cached vs uncached search: the posting-cache ablation's trajectory."""
    dataset = make_sift_like(scale.base_vectors, 0, dim=scale.dim, seed=seed)
    config = _base_config(scale, seed)
    index = SPFreshIndex.build(dataset.base, config=config)
    queries = _queries(dataset, scale, seed)

    def _searcher(controller) -> SpannSearcher:
        return SpannSearcher(
            index.centroid_index,
            controller,
            index.version_map,
            default_nprobe=scale.nprobe,
            latency_budget_us=config.search_latency_budget_us,
            cpu_cost_per_entry_us=config.cpu_cost_per_entry_us,
            cpu_cost_per_query_us=config.cpu_cost_per_query_us,
        )

    def _sweep(searcher) -> tuple[list[float], list[float]]:
        lat, io_lat = [], []
        for query in queries:
            result = searcher.search(query, scale.k, nprobe=scale.nprobe)
            lat.append(result.latency_us)
            io_lat.append(result.io_latency_us)
        return lat, io_lat

    plain = _searcher(index.controller)
    before = index.ssd.stats.snapshot()
    uncached_lat, uncached_io = _sweep(plain)
    uncached_window = index.ssd.stats.since(before)

    cached_controller = CachedBlockController(index.controller, capacity=256)
    cached = _searcher(cached_controller)
    _sweep(cached)  # cold pass: populate the cache
    cached_controller.hits = 0
    cached_controller.misses = 0
    before = index.ssd.stats.snapshot()
    cached_lat, cached_io = _sweep(cached)
    cached_window = index.ssd.stats.since(before)

    uncached_mean = float(np.mean(uncached_lat))
    cached_mean = float(np.mean(cached_lat))
    deterministic = {
        **percentile_metrics(uncached_lat, "uncached_latency_us"),
        **percentile_metrics(cached_lat, "cached_latency_us"),
        **percentile_metrics(uncached_io, "uncached_io_latency_us"),
        **percentile_metrics(cached_io, "cached_io_latency_us"),
        "cache_hit_rate": _round(cached_controller.hit_rate, 4),
        "cache_speedup": _round(
            uncached_mean / cached_mean if cached_mean > 0 else 0.0
        ),
        "uncached_block_reads": float(uncached_window.block_reads),
        "cached_block_reads": float(cached_window.block_reads),
    }
    return ScenarioResult(
        scenario="cache",
        config={
            **_scenario_config(scale, seed, config),
            "queries": len(queries),
            "cache_capacity": 256,
        },
        deterministic=deterministic,
        wall_clock={},
    )


def scenario_throughput(scale: PerfScale, seed: int) -> ScenarioResult:
    """Vectorized-engine throughput: batched-vs-single parity plus wall QPS.

    Parity and scan counters run at the searcher layer (no maintenance side
    effects), so ``batch_single_mismatches`` gates the bit-identity contract
    of the vectorized batch path. QPS numbers are wall clock and therefore
    informational; ``profiled_batch_qps`` re-runs the batched sweep with the
    wall-clock profiler enabled so its overhead is visible in the report.
    """
    dataset = make_sift_like(scale.base_vectors, 0, dim=scale.dim, seed=seed)
    config = _base_config(scale, seed)
    index = SPFreshIndex.build(dataset.base, config=config)
    searcher = index.searcher
    queries = _queries(dataset, scale, seed)
    truth = exact_knn(
        dataset.base, np.arange(scale.base_vectors), queries, scale.k
    )

    single_results = []
    wall_start = time.perf_counter()
    for query in queries:
        single_results.append(searcher.search(query, scale.k, nprobe=scale.nprobe))
    single_wall = time.perf_counter() - wall_start

    before = index.ssd.stats.snapshot()
    batch_results = []
    wall_start = time.perf_counter()
    for start in range(0, len(queries), scale.batch_size):
        chunk = queries[start : start + scale.batch_size]
        batch_results.extend(searcher.search_many(chunk, scale.k, nprobe=scale.nprobe))
    batch_wall = time.perf_counter() - wall_start
    batch_window = index.ssd.stats.since(before)

    mismatches = sum(
        1
        for s, b in zip(single_results, batch_results)
        if not (
            np.array_equal(s.ids, b.ids) and np.array_equal(s.distances, b.distances)
        )
    )

    # Third sweep with the profiler switched on: stage attribution for the
    # report, and a live check that instrumentation stays cheap.
    index.profiler.enabled = True
    index.profiler.reset()
    wall_start = time.perf_counter()
    for start in range(0, len(queries), scale.batch_size):
        chunk = queries[start : start + scale.batch_size]
        searcher.search_many(chunk, scale.k, nprobe=scale.nprobe)
    profiled_wall = time.perf_counter() - wall_start
    index.profiler.enabled = False

    deterministic = {
        **percentile_metrics([r.latency_us for r in batch_results], "batch_latency_us"),
        "single_recall_at_k": _round(
            recall_at_k([r.ids for r in single_results], truth, scale.k), 4
        ),
        "batch_recall_at_k": _round(
            recall_at_k([r.ids for r in batch_results], truth, scale.k), 4
        ),
        "batch_single_mismatches": float(mismatches),
        "batch_postings_probed_mean": _round(
            np.mean([r.postings_probed for r in batch_results])
        ),
        "batch_entries_scanned_mean": _round(
            np.mean([r.entries_scanned for r in batch_results])
        ),
        **batch_window.to_metrics("batch_io"),
    }
    wall_clock = {
        "single_search_qps": _round(
            len(queries) / single_wall if single_wall > 0 else 0.0
        ),
        "batch_search_qps": _round(
            len(queries) / batch_wall if batch_wall > 0 else 0.0
        ),
        "batch_wall_speedup": _round(
            single_wall / batch_wall if batch_wall > 0 else 0.0
        ),
        "profiled_batch_qps": _round(
            len(queries) / profiled_wall if profiled_wall > 0 else 0.0
        ),
    }
    return ScenarioResult(
        scenario="throughput",
        config={**_scenario_config(scale, seed, config), "queries": len(queries)},
        deterministic=deterministic,
        wall_clock=wall_clock,
    )


def scenario_serving(scale: PerfScale, seed: int) -> ScenarioResult:
    """Open-loop serving: admission + dynamic batching vs unbatched.

    One seeded bursty, hot-key-skewed, multi-tenant arrival trace is
    served twice through ``repro.serving.ServingFrontend`` over the same
    freshly built index: once with the dynamic batcher (config knobs) and
    once unbatched (``max_batch=1``, ``max_wait_us=0`` — the baseline a
    serving layer must beat). Everything runs on the simulated clock, so
    goodput, tail latency, SLO-violation rate, and shed rate gate in CI;
    ``goodput_speedup`` gates the batched-beats-unbatched claim itself.
    """
    from repro.datasets import make_arrival_trace
    from repro.serving import ServingFrontend

    dataset = make_sift_like(scale.base_vectors, 0, dim=scale.dim, seed=seed)
    config = _base_config(scale, seed)
    index = SPFreshIndex.build(dataset.base, config=config)
    pool = _queries(dataset, scale, seed)
    trace = make_arrival_trace(
        pool,
        n_requests=scale.serve_requests,
        mean_rate_qps=scale.serve_rate_qps,
        pattern="bursty",
        hot_key_skew=0.8,
        tenant_weights=4,
        seed=seed + 5,
        name=f"serving-{scale.name}",
    )

    wall_start = time.perf_counter()
    batched = ServingFrontend.from_config(
        index.searcher, config, k=scale.k, nprobe=scale.nprobe
    ).run(trace)
    batched_wall = time.perf_counter() - wall_start
    wall_start = time.perf_counter()
    unbatched = ServingFrontend.from_config(
        index.searcher,
        config,
        k=scale.k,
        nprobe=scale.nprobe,
        max_batch=1,
        max_wait_us=0.0,
    ).run(trace)
    unbatched_wall = time.perf_counter() - wall_start

    bm = batched.metrics()
    um = unbatched.metrics()
    deterministic = {
        "goodput_qps": _round(bm["goodput_qps"]),
        "unbatched_goodput_qps": _round(um["goodput_qps"]),
        "goodput_speedup": _round(
            bm["goodput_qps"] / um["goodput_qps"] if um["goodput_qps"] else 0.0
        ),
        "answered_qps": _round(bm["answered_qps"]),
        "shed_rate": _round(bm["shed_rate"], 4),
        "unbatched_shed_rate": _round(um["shed_rate"], 4),
        "slo_violation_rate": _round(bm["slo_violation_rate"], 4),
        "unbatched_slo_violation_rate": _round(um["slo_violation_rate"], 4),
        "e2e_latency_us_p50": bm["e2e_latency_us_p50"],
        "e2e_latency_us_p99": bm["e2e_latency_us_p99"],
        "e2e_latency_us_p99.9": bm["e2e_latency_us_p99.9"],
        "unbatched_e2e_latency_us_p99": um["e2e_latency_us_p99"],
        "queue_wait_us_mean": _round(bm["queue_wait_us_mean"]),
        "assembly_wait_us_mean": _round(bm["assembly_wait_us_mean"]),
        "engine_us_mean": _round(bm["engine_us_mean"]),
        "batch_size_mean": _round(bm["batch_size_mean"]),
        "batch_count": bm["batch_count"],
        "retry_after_us_mean": _round(bm["retry_after_us_mean"]),
    }
    wall_clock = {
        "batched_requests_per_s": _round(
            scale.serve_requests / batched_wall if batched_wall > 0 else 0.0
        ),
        "unbatched_requests_per_s": _round(
            scale.serve_requests / unbatched_wall if unbatched_wall > 0 else 0.0
        ),
    }
    return ScenarioResult(
        scenario="serving",
        config={
            **_scenario_config(scale, seed, config),
            "serve_requests": scale.serve_requests,
            "serve_rate_qps": scale.serve_rate_qps,
            "pattern": "bursty",
            "hot_key_skew": 0.8,
            "tenants": 4,
            "queue_capacity": config.serve_queue_capacity,
            "max_batch": config.serve_max_batch,
            "max_wait_us": config.serve_max_wait_us,
            "slo_us": config.serve_slo_us,
            "admission_wait_budget_us": config.serve_admission_wait_budget_us,
        },
        deterministic=deterministic,
        wall_clock=wall_clock,
    )


def scenario_serving_concurrent(scale: PerfScale, seed: int) -> ScenarioResult:
    """K-worker serving: goodput scaling, DWRR fairness, pool parity.

    Three claims, one scenario:

    * **goodput scales with workers** — a saturating Poisson trace (rate
      far above one worker's drain rate) runs through the frontend at
      ``num_workers=1`` and ``num_workers=serve_workers``; simulated
      goodput must scale (``workers_goodput_speedup`` gates >= 2 at
      K=4). Deterministic: both runs are pure functions of the trace.
    * **DWRR bounds the victims' tail** — a hot-key-skewed trace with one
      dominant tenant (8x the others' weight) runs FIFO vs DWRR at the
      same K. The *victim* p99 (worst p99 among non-dominant tenants)
      must not be worse under DWRR (``dwrr_fairness_speedup`` gates
      >= 1); per-tenant p99 spreads for both policies ship alongside.
    * **wall-clock pools are bit-exact** — the exact batch schedule the
      K-worker run produced replays serially, on a shared-engine thread
      pool, and (where ``fork`` exists) on a forked worker pool; every
      seat's (ids, distances) must match the serial replay
      (``pool_parity_mismatches`` / ``process_parity_mismatches`` gate
      at 0). The pools run at the searcher layer, which has no
      maintenance side effects, so parity is exact by construction.
      Pool wall speedups are informational (host-dependent), never
      gated.
    """
    from repro.datasets import make_arrival_trace
    from repro.serving import (
        ServingFrontend,
        batch_jobs,
        count_mismatches,
        replay,
        replay_pool,
    )
    from repro.util.workers import fork_available

    dataset = make_sift_like(scale.base_vectors, 0, dim=scale.dim, seed=seed)
    config = _base_config(scale, seed)
    index = SPFreshIndex.build(dataset.base, config=config)
    pool_queries = _queries(dataset, scale, seed)

    # --- goodput scaling on a saturating trace --------------------------
    saturating = make_arrival_trace(
        pool_queries,
        n_requests=scale.serve_requests,
        mean_rate_qps=scale.serve_saturate_qps,
        pattern="poisson",
        tenant_weights=4,
        seed=seed + 11,
        name=f"serving-saturate-{scale.name}",
    )

    def frontend(**overrides) -> ServingFrontend:
        return ServingFrontend.from_config(
            index.searcher, config, k=scale.k, nprobe=scale.nprobe, **overrides
        )

    single = frontend(num_workers=1).run(saturating)
    pooled = frontend(num_workers=scale.serve_workers).run(saturating)
    sm = single.metrics()
    pm = pooled.metrics()

    # --- fairness under a dominant tenant -------------------------------
    skewed = make_arrival_trace(
        pool_queries,
        n_requests=scale.serve_requests,
        mean_rate_qps=scale.serve_saturate_qps,
        pattern="bursty",
        hot_key_skew=0.8,
        tenant_weights=(8.0, 1.0, 1.0, 1.0),
        seed=seed + 12,
        name=f"serving-hotkey-{scale.name}",
    )
    fifo = frontend(num_workers=scale.serve_workers, fairness="fifo").run(skewed)
    dwrr = frontend(num_workers=scale.serve_workers, fairness="dwrr").run(skewed)

    def victim_p99(report) -> float:
        """Worst answered p99 among tenants other than the heaviest."""
        per_tenant = report.per_tenant_metrics()
        if not per_tenant:
            return 0.0
        dominant = max(per_tenant, key=lambda t: per_tenant[t]["offered"])
        return max(
            (
                m["e2e_latency_us_p99"]
                for t, m in per_tenant.items()
                if t != dominant and m["e2e_latency_us_p99"] > 0.0
            ),
            default=0.0,
        )

    fifo_victim = victim_p99(fifo)
    dwrr_victim = victim_p99(dwrr)

    # --- wall-clock pool replay of the K-worker batch schedule ----------
    jobs = batch_jobs(saturating, pooled)
    def replayed(pool=None):
        return replay(index.searcher, jobs, scale.k, scale.nprobe, pool=pool)

    serial = replayed()
    with replay_pool(
        index.searcher, scale.serve_workers, fork=False, profiler=index.profiler
    ) as threads:
        threaded = replayed(threads)
    thread_mismatches = count_mismatches(serial, threaded)

    process_mismatches = 0
    process_wall = 0.0
    process_workers = 0
    if fork_available():
        with replay_pool(
            index.searcher, scale.serve_workers, fork=True
        ) as procs:
            # Warm second pass: the first fork pays copy-on-write page
            # faults; the steady state is what the comparison should show.
            forked = replayed(procs)
            process_mismatches = count_mismatches(serial, forked)
            forked = replayed(procs)
            process_mismatches += count_mismatches(serial, forked)
            process_wall = forked.wall_s
            process_workers = scale.serve_workers

    deterministic = {
        "single_worker_goodput_qps": _round(sm["goodput_qps"]),
        "pool_goodput_qps": _round(pm["goodput_qps"]),
        "workers_goodput_speedup": _round(
            pm["goodput_qps"] / sm["goodput_qps"] if sm["goodput_qps"] else 0.0
        ),
        "single_worker_shed_rate": _round(sm["shed_rate"], 4),
        "pool_shed_rate": _round(pm["shed_rate"], 4),
        "pool_slo_violation_rate": _round(pm["slo_violation_rate"], 4),
        "pool_e2e_latency_us_p99": pm["e2e_latency_us_p99"],
        "single_worker_e2e_latency_us_p99": sm["e2e_latency_us_p99"],
        "pool_worker_busy_frac_mean": _round(pm["worker_busy_frac_mean"], 4),
        "pool_worker_busy_frac_min": _round(pm["worker_busy_frac_min"], 4),
        "pool_batch_size_mean": _round(pm["batch_size_mean"]),
        "fifo_victim_p99_us": _round(fifo_victim),
        "dwrr_victim_p99_us": _round(dwrr_victim),
        "dwrr_fairness_speedup": _round(
            fifo_victim / dwrr_victim if dwrr_victim > 0 else 0.0
        ),
        "fifo_tenant_p99_spread": _round(fifo.tenant_p99_spread(), 4),
        "dwrr_tenant_p99_spread": _round(dwrr.tenant_p99_spread(), 4),
        "fifo_shed_rate": _round(fifo.metrics()["shed_rate"], 4),
        "dwrr_shed_rate": _round(dwrr.metrics()["shed_rate"], 4),
        "replayed_batches": float(len(jobs)),
        "pool_parity_mismatches": float(thread_mismatches),
        "process_parity_mismatches": float(process_mismatches),
    }
    wall_clock = {
        "serial_replay_wall_ms": _round(serial.wall_s * 1e3),
        "thread_pool_wall_ms": _round(threaded.wall_s * 1e3),
        "thread_pool_wall_speedup": _round(
            serial.wall_s / threaded.wall_s if threaded.wall_s > 0 else 0.0
        ),
        "process_pool_wall_ms": _round(process_wall * 1e3),
        "process_pool_wall_speedup": _round(
            serial.wall_s / process_wall if process_wall > 0 else 0.0
        ),
        "process_workers": float(process_workers),
    }
    return ScenarioResult(
        scenario="serving_concurrent",
        config={
            **_scenario_config(scale, seed, config),
            "serve_requests": scale.serve_requests,
            "serve_saturate_qps": scale.serve_saturate_qps,
            "serve_workers": scale.serve_workers,
            "hot_key_skew": 0.8,
            "tenants": 4,
            "dominant_tenant_weight": 8.0,
            "queue_capacity": config.serve_queue_capacity,
            "max_batch": config.serve_max_batch,
            "max_wait_us": config.serve_max_wait_us,
            "slo_us": config.serve_slo_us,
            "admission_wait_budget_us": config.serve_admission_wait_budget_us,
        },
        deterministic=deterministic,
        wall_clock=wall_clock,
    )


SCENARIOS = {
    "search": scenario_search,
    "update": scenario_update,
    "rebalance": scenario_rebalance,
    "fresh_tier": scenario_fresh_tier,
    "quantized": scenario_quantized,
    "cluster": scenario_cluster,
    "recovery": scenario_recovery,
    "cache": scenario_cache,
    "throughput": scenario_throughput,
    "serving": scenario_serving,
    "serving_concurrent": scenario_serving_concurrent,
}


def run_scenarios(
    scale: PerfScale,
    seed: int = 0,
    scenarios: list[str] | None = None,
    progress: bool = False,
) -> list[ScenarioResult]:
    """Run the requested scenarios (all by default) at one scale/seed."""
    names = scenarios or list(SCENARIOS)
    results: list[ScenarioResult] = []
    for name in names:
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
            )
        started = time.perf_counter()
        result = SCENARIOS[name](scale, seed)
        if progress:
            print(
                f"[perf] {name}: {len(result.deterministic)} metrics "
                f"in {time.perf_counter() - started:.1f}s"
            )
        results.append(result)
    return results


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------
def write_results(
    results: list[ScenarioResult], out_dir: str | Path
) -> list[Path]:
    """Write one ``BENCH_<scenario>.json`` per result; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for result in results:
        path = out / f"{FILE_PREFIX}{result.scenario}.json"
        with open(path, "w") as fh:
            json.dump(result.to_document(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def load_documents(directory: str | Path) -> dict[str, dict]:
    """Load every ``BENCH_*.json`` in a directory, keyed by scenario."""
    docs: dict[str, dict] = {}
    for path in sorted(Path(directory).glob(f"{FILE_PREFIX}*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        docs[doc.get("scenario", path.stem[len(FILE_PREFIX) :])] = doc
    return docs


def run_markdown_summary(results: list[ScenarioResult]) -> str:
    """Compact per-scenario headline table for PR logs."""
    headline_order = (
        "single_latency_us_p50",
        "single_latency_us_p99.9",
        "insert_latency_us_p99.9",
        "cached_latency_us_p50",
        "single_recall_at_k",
        "quant_recall_ratio",
        "quant_read_bytes_speedup",
        "routing_recall_ratio",
        "shards_probed_fraction",
        "conservation_violations",
        "rerank_all_mismatches",
        "fresh_write_amp_speedup",
        "search_parity_mismatches",
        "cache_hit_rate",
        "goodput_qps",
        "slo_violation_rate",
        "shed_rate",
        "batch_size_mean",
        "splits",
        "merges",
        "reassign_executed",
        "wal_records_replayed",
        "io_block_reads",
        "io_block_writes",
    )
    rows = []
    for result in results:
        picks = [k for k in headline_order if k in result.deterministic]
        headline = ", ".join(
            f"{k}={result.deterministic[k]:g}" for k in picks[:4]
        )
        rows.append(
            (result.scenario, len(result.deterministic), headline or "—")
        )
    return format_markdown_table(
        ["scenario", "gated metrics", "headline"],
        rows,
        title="perf harness results (deterministic section)",
    )


# ----------------------------------------------------------------------
# baseline comparison
# ----------------------------------------------------------------------
@dataclass
class MetricDelta:
    """One metric compared across baseline and current runs."""

    scenario: str
    metric: str
    baseline: float | None
    current: float | None
    direction: str  # "lower" | "higher"
    rel_change: float  # positive = worse, negative = better
    verdict: str  # "ok" | "regression" | "improvement" | "new" | "missing"


@dataclass
class CompareReport:
    """Outcome of comparing two ``BENCH_*.json`` directories."""

    tolerance: float
    deltas: list[MetricDelta] = field(default_factory=list)
    missing_scenarios: list[str] = field(default_factory=list)
    new_scenarios: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.verdict in ("regression", "missing")]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing_scenarios

    def markdown(self, max_ok_rows: int = 0) -> str:
        rows = []
        for delta in self.deltas:
            if delta.verdict == "ok" and not max_ok_rows:
                continue
            rows.append(
                (
                    delta.scenario,
                    delta.metric,
                    "—" if delta.baseline is None else f"{delta.baseline:g}",
                    "—" if delta.current is None else f"{delta.current:g}",
                    f"{delta.rel_change:+.1%}"
                    if math.isfinite(delta.rel_change)
                    else "inf",
                    delta.verdict,
                )
            )
        if not rows:
            rows.append(("all", "—", "—", "—", "+0.0%", "ok"))
        return format_markdown_table(
            ["scenario", "metric", "baseline", "current", "change", "verdict"],
            rows,
            title=f"perf comparison (tolerance {self.tolerance:.0%})",
        )

    def summary(self) -> str:
        state = "OK" if self.ok else "REGRESSION"
        lines = [
            f"perf compare: {state} — {len(self.regressions)} regressions, "
            f"{len(self.improvements)} improvements over "
            f"{len(self.deltas)} metrics (tolerance {self.tolerance:.1%})"
        ]
        for delta in self.regressions[:10]:
            change = (
                f"{delta.rel_change:+.1%}"
                if math.isfinite(delta.rel_change)
                else "inf"
            )
            lines.append(
                f"  REGRESSION {delta.scenario}.{delta.metric}: "
                f"{delta.baseline} -> {delta.current} ({change})"
            )
        for name in self.missing_scenarios:
            lines.append(f"  MISSING scenario {name}: no current BENCH file")
        return "\n".join(lines)


def _compare_metric(
    baseline: float, current: float, direction: str
) -> float:
    """Relative regression amount (positive = worse in `direction` terms)."""
    if direction == "higher":
        worse = baseline - current
    else:
        worse = current - baseline
    if baseline == 0:
        if worse == 0:
            return 0.0
        return math.inf if worse > 0 else -math.inf
    return worse / abs(baseline)


def compare_documents(
    baseline_docs: dict[str, dict],
    current_docs: dict[str, dict],
    tolerance: float,
) -> CompareReport:
    """Compare deterministic sections; wall-clock is never gated."""
    report = CompareReport(tolerance=tolerance)
    for scenario, base_doc in sorted(baseline_docs.items()):
        cur_doc = current_docs.get(scenario)
        if cur_doc is None:
            report.missing_scenarios.append(scenario)
            continue
        base_metrics = base_doc.get("deterministic", {})
        cur_metrics = cur_doc.get("deterministic", {})
        directions = {
            **base_doc.get("directions", {}),
            **cur_doc.get("directions", {}),
        }
        for metric in sorted(set(base_metrics) | set(cur_metrics)):
            direction = directions.get(metric, "lower")
            base_val = base_metrics.get(metric)
            cur_val = cur_metrics.get(metric)
            if base_val is None:
                # New metric: no baseline to gate against, never a failure.
                report.deltas.append(
                    MetricDelta(scenario, metric, None, cur_val, direction, 0.0, "new")
                )
                continue
            if cur_val is None:
                # A gated metric vanished — treat as a regression so gates
                # cannot be silently deleted.
                report.deltas.append(
                    MetricDelta(
                        scenario, metric, base_val, None, direction, math.inf, "missing"
                    )
                )
                continue
            rel = _compare_metric(float(base_val), float(cur_val), direction)
            if rel > tolerance:
                verdict = "regression"
            elif rel < -tolerance:
                verdict = "improvement"
            else:
                verdict = "ok"
            report.deltas.append(
                MetricDelta(
                    scenario, metric, float(base_val), float(cur_val), direction, rel, verdict
                )
            )
    report.new_scenarios = sorted(set(current_docs) - set(baseline_docs))
    return report


def compare_dirs(
    baseline_dir: str | Path, current_dir: str | Path, tolerance: float
) -> CompareReport:
    """Compare every ``BENCH_*.json`` in two directories."""
    return compare_documents(
        load_documents(baseline_dir), load_documents(current_dir), tolerance
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def add_perf_arguments(
    parser: argparse.ArgumentParser, *, include_shared: bool = True
) -> None:
    """Register the harness's flags on ``parser``.

    The unified ``python -m repro`` CLI supplies ``--scale``/``--seed``
    from its shared parent parser and calls this with
    ``include_shared=False``; the standalone ``python -m repro.bench.perf``
    entry point registers everything itself.
    """
    if include_shared:
        parser.add_argument(
            "--scale", choices=sorted(PERF_SCALES), default="quick",
            help="workload scale preset (see repro.bench.scales.PERF_SCALES)",
        )
        parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="alias for --scale quick (the CI tier)",
    )
    parser.add_argument(
        "--out", default=".",
        help="directory that receives BENCH_*.json (default: repo root)",
    )
    parser.add_argument(
        "--scenarios", nargs="+", choices=sorted(SCENARIOS), default=None,
        help="subset of scenarios to run (default: all)",
    )
    parser.add_argument(
        "--compare", metavar="BASELINE_DIR", default=None,
        help="compare --out against a baseline BENCH_*.json directory; "
        "exit nonzero on deterministic-metric regressions",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative regression tolerance for --compare (default 0.05)",
    )
    parser.add_argument(
        "--compare-only", action="store_true",
        help="skip running scenarios; just compare --out against --compare",
    )
    parser.add_argument(
        "--summary", metavar="PATH", default=None,
        help="also write the markdown summary/comparison to this file",
    )


def run_cli(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Execute one parsed harness invocation (shared with ``repro.cli``)."""
    if args.quick:
        args.scale = "quick"
    scale = PERF_SCALES[args.scale]

    summary_parts: list[str] = []
    if not args.compare_only:
        results = run_scenarios(
            scale, seed=args.seed, scenarios=args.scenarios, progress=True
        )
        paths = write_results(results, args.out)
        print(f"[perf] wrote {len(paths)} files to {Path(args.out).resolve()}")
        summary_parts.append(run_markdown_summary(results))

    exit_code = 0
    if args.compare is not None:
        report = compare_dirs(args.compare, args.out, args.tolerance)
        summary_parts.append(report.markdown())
        print(report.summary())
        exit_code = 0 if report.ok else 1
    elif args.compare_only:
        parser.error("--compare-only requires --compare")

    summary = "\n\n".join(summary_parts)
    if summary:
        print()
        print(summary)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(summary + "\n")
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_perf_arguments(parser)
    return run_cli(parser.parse_args(argv), parser)


if __name__ == "__main__":
    raise SystemExit(main())
