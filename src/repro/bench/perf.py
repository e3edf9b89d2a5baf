"""Deterministic perf-regression harness: seeded scenarios → ``BENCH_*.json``.

The simulation substrate makes performance *reproducible*: device latency,
I/O amplification, ParallelGET waves, probe counts, and LIRE rebalancing
work are all functions of the seeded workload, not of the machine the
bench runs on. This harness records those numbers and nothing else (host
time is measured by ``benchmarks/e2e`` and tracked in
``BENCH_HISTORY.jsonl``):

* each **scenario** runs a seeded workload over the real stack (searcher,
  updater, LIRE split/merge/reassign, WAL + recovery, posting cache,
  cluster, serving) and records its ``deterministic`` metrics — simulated
  latency percentiles, IOStats read/write amplification, wave counts,
  postings probed, rebalance counters, recall against brute force, parity
  counters. Bit-stable under a fixed seed on any machine;

* ``CLAIMS`` states what each scenario must show in absolute terms
  (parity counters at 0, recall ratios >= 0.95, speedups above 1). Every
  run checks it and exits nonzero on a failed claim or on a claimed
  metric the scenario no longer emits;

* results land as ``BENCH_<scenario>.json`` (stable schema, sorted keys)
  so every later PR diffs against the same files; ``--compare
  baseline_dir/ --tolerance 0.05`` exits nonzero when any metric
  regresses beyond tolerance relative to the baseline.

Run from the CLI (``python -m repro.bench.perf`` is the same command)::

    PYTHONPATH=src python -m repro perf --quick --out bench-out
    PYTHONPATH=src python -m repro perf --compare-only \\
        --compare baseline/ --out bench-out --tolerance 0.05
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
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

# Version 2 dropped version 1's host-timed and gating-policy sections;
# the comparator reads only ``deterministic`` and ``directions``, so a
# version-1 baseline still compares.
SCHEMA_VERSION = 2
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
    """One scenario's deterministic measurements."""

    scenario: str
    config: dict
    deterministic: dict[str, float]

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
        """The ``BENCH_*.json`` payload (stable schema, directions inline)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "generated_by": "repro.bench.perf",
            "scenario": self.scenario,
            "config": self.config,
            "deterministic": self.deterministic,
            "directions": self.directions(),
        }


def _round(value: float, decimals: int = 3) -> float:
    return round(float(value), decimals)


def _ratio(num: float, den: float, decimals: int = 3) -> float:
    """``num / den`` rounded, 0.0 when the denominator is not positive."""
    return _round(num / den if den > 0 else 0.0, decimals)


def _mismatches(a, b) -> int:
    """Pairs of results whose ids *or* distances are not bit-identical."""
    return sum(
        not (np.array_equal(x.ids, y.ids) and np.array_equal(x.distances, y.distances))
        for x, y in zip(a, b)
    )


# Small postings, so a scenario's churn crosses split/merge thresholds and
# the LIRE counters carry signal.
_TIGHT_POSTINGS = dict(
    max_posting_size=48, min_posting_size=4, build_target_posting_size=24
)


def _base_config(scale: PerfScale, seed: int, **overrides) -> SPFreshConfig:
    base = dict(
        dim=scale.dim,
        seed=seed,
        ssd_blocks=1 << 16,
        centroid_index_kind="brute",
    )
    base.update(overrides)
    return SPFreshConfig(**base).validate()


def _queries(dataset, count: int, seed: int) -> np.ndarray:
    """Seeded query set: perturbed samples of the base distribution."""
    rng = np.random.default_rng(seed + 1)
    picks = rng.integers(0, len(dataset.base), size=count)
    noise = rng.normal(scale=0.05, size=(count, dataset.base.shape[1]))
    return (dataset.base[picks] + noise).astype(np.float32)


def _standard(scale: PerfScale, seed: int):
    """The default workload: dataset, config, freshly built index, queries."""
    dataset = make_sift_like(scale.base_vectors, 0, dim=scale.dim, seed=seed)
    config = _base_config(scale, seed)
    index = SPFreshIndex.build(dataset.base, config=config)
    return dataset, config, index, _queries(dataset, scale.queries, seed)


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
    dataset, config, index, queries = _standard(scale, seed)
    truth = exact_knn(
        dataset.base, np.arange(scale.base_vectors), queries, scale.k
    )

    before = index.ssd.stats.snapshot()
    single = [
        index.query(QueryRequest.single(q, k=scale.k, nprobe=scale.nprobe)).result
        for q in queries
    ]
    single_window = index.ssd.stats.since(before)

    before = index.ssd.stats.snapshot()
    batch = [
        result
        for start in range(0, len(queries), scale.batch_size)
        for result in index.query(
            QueryRequest(
                vectors=queries[start : start + scale.batch_size],
                k=scale.k,
                nprobe=scale.nprobe,
            )
        )
    ]
    batch_window = index.ssd.stats.since(before)

    io_latencies = [r.io_latency_us for r in single]
    # Read amplification: device bytes fetched per byte of result payload.
    result_bytes = len(queries) * scale.k * scale.dim * 4
    deterministic = {
        **percentile_metrics([r.latency_us for r in single], "single_latency_us"),
        **percentile_metrics(io_latencies, "single_io_latency_us"),
        **percentile_metrics([r.latency_us for r in batch], "batch_latency_us"),
        "single_recall_at_k": _round(
            recall_at_k([r.ids for r in single], truth, scale.k), 4
        ),
        "batch_recall_at_k": _round(
            recall_at_k([r.ids for r in batch], truth, scale.k), 4
        ),
        "single_postings_probed_mean": _round(
            np.mean([r.postings_probed for r in single])
        ),
        "single_entries_scanned_mean": _round(
            np.mean([r.entries_scanned for r in single])
        ),
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
    return ScenarioResult(
        scenario="search",
        config={**_scenario_config(scale, seed, config), "queries": len(queries)},
        deterministic=deterministic,
    )


def scenario_update(scale: PerfScale, seed: int) -> ScenarioResult:
    """Interleaved insert/delete churn through the foreground updater."""
    dataset = make_sift_like(
        scale.base_vectors, scale.updates, dim=scale.dim, seed=seed
    )
    config = _base_config(scale, seed, **_TIGHT_POSTINGS)
    index = SPFreshIndex.build(dataset.base, config=config)
    rng = np.random.default_rng(seed + 2)

    insert_lat: list[float] = []
    delete_lat: list[float] = []
    deletable = list(range(scale.base_vectors))
    next_pool = 0
    stats_before = index.stats.snapshot()
    io_before = index.ssd.stats.snapshot()
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
    return ScenarioResult(
        scenario="update",
        config={
            **_scenario_config(scale, seed, config),
            "updates": scale.updates,
            "inserts": len(insert_lat),
            "deletes": len(delete_lat),
        },
        deterministic=deterministic,
    )


def scenario_rebalance(scale: PerfScale, seed: int) -> ScenarioResult:
    """Split+merge+reassign storm: hot-cluster burst, then mass deletion."""
    dataset = make_sift_like(
        max(scale.base_vectors // 2, 200), 0, dim=scale.dim, seed=seed
    )
    config = _base_config(scale, seed, **_TIGHT_POSTINGS, reassign_range=12)
    index = SPFreshIndex.build(dataset.base, config=config)
    rng = np.random.default_rng(seed + 3)
    hot_center = dataset.cluster_centers[0]

    stats_before = index.stats.snapshot()
    io_before = index.ssd.stats.snapshot()
    postings_before = index.num_postings
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
    return ScenarioResult(
        scenario="rebalance",
        config={
            **_scenario_config(scale, seed, config),
            "storm_inserts": scale.storm_inserts,
            "storm_deletes": len(victims),
        },
        deterministic=deterministic,
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
        # No search budget, so the parity sweeps scan everything they probe.
        config = _base_config(
            scale,
            seed,
            **_TIGHT_POSTINGS,
            search_latency_budget_us=None,
            enable_fresh_tier=enable_tier,
            fresh_flush_threshold=threshold,
        )
        index = SPFreshIndex.build(dataset.base, config=config)
        vectors = storm_vectors()
        stats_before = index.stats.snapshot()
        io_before = index.ssd.stats.snapshot()
        latencies = [
            index.insert(4_000_000 + i, vectors[i])
            for i in range(scale.storm_inserts)
        ]
        index.drain()
        window = index.ssd.stats.since(io_before)
        # The tail rides outside the measured window: it stays buffered in
        # the fresh run (below threshold) and lands on disk in the baseline,
        # keeping the two live sets identical for the recall sweep.
        for i in range(scale.storm_inserts, len(vectors)):
            index.insert(4_000_000 + i, vectors[i])
        index.drain()
        delta = index.stats.snapshot().delta(stats_before)
        return index, config, latencies, window, delta

    base_index, config, base_lat, base_window, base_delta = run(False)
    fresh_index, _, fresh_lat, fresh_window, fresh_delta = run(True)

    # Recall at the regular probe width over the identical live sets.
    queries = _queries(dataset, scale.queries, seed)
    all_vectors = np.concatenate([dataset.base, storm_vectors()])
    all_ids = np.concatenate(
        [
            np.arange(base_n, dtype=np.int64),
            4_000_000 + np.arange(scale.storm_inserts + tail, dtype=np.int64),
        ]
    )
    truth = exact_knn(all_vectors, all_ids, queries, scale.k)

    def recall(index) -> float:
        ids = [
            index.query(QueryRequest.single(q, k=scale.k, nprobe=scale.nprobe)).ids
            for q in queries
        ]
        return _round(recall_at_k(ids, truth, scale.k), 4)

    base_recall, fresh_recall = recall(base_index), recall(fresh_index)

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
    batch_single_mismatches = _mismatches(
        pre,
        fresh_index.query(
            QueryRequest(vectors=parity_queries, k=scale.k, nprobe=10**6)
        ),
    )
    flushed_for_parity = fresh_index.flush_fresh_tier()
    post = [
        fresh_index.query(QueryRequest.single(q, k=scale.k, nprobe=10**6)).result
        for q in parity_queries
    ]
    search_parity_mismatches = _mismatches(pre, post)

    inserted_bytes = scale.storm_inserts * scale.dim * 4
    base_amp = base_window.write_amplification(inserted_bytes)
    fresh_amp = fresh_window.write_amplification(inserted_bytes)
    deterministic = {
        "baseline_write_amplification": _round(base_amp),
        "fresh_write_amplification": _round(fresh_amp),
        "fresh_write_amp_speedup": _ratio(base_amp, fresh_amp),
        **percentile_metrics(base_lat, "baseline_insert_latency_us"),
        **percentile_metrics(fresh_lat, "fresh_insert_latency_us"),
        "baseline_recall_at_k": base_recall,
        "fresh_recall_at_k": fresh_recall,
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
    )


def scenario_quantized(scale: PerfScale, seed: int) -> ScenarioResult:
    """Quantized posting scans vs exact, at equal probe width.

    This scenario pins its own workload geometry instead of the generic
    ``scale`` one: SIFT-like 128-dimensional vectors and paper-realistic
    posting lengths (hundreds of entries per posting). That is the regime
    the codec targets — with 32-dimensional vectors and ~50-entry
    postings, per-posting bookkeeping dominates and the code/vector byte
    asymmetry (a 25-byte PQ entry vs a 521-byte vector entry) is
    invisible. Probe width, k, and the query set are identical for both
    paths.

    Two same-seed builds over the same base set — one with the exact
    layout, one with the two-section quantized layout (PQ, 16 subspaces) —
    run the identical query sweep with no latency budget. The simulated
    IO sweep is single-query: per-query read accounting is what a
    serving system pays per request, whereas a batched sweep fetches
    each posting once for the whole batch and amortizes the very reads
    the codec shrinks. Gated metrics (docs/quantization.md):

    * recall for both, plus ``quant_recall_ratio`` (quantized ÷ exact;
      claimed >= 0.95);
    * simulated read bytes per query for both, plus the byte and
      simulated-latency speedups (the IO win is what quantization buys:
      scans touch only the compact code section, then fetch only the
      ``k * rerank_k`` selected rows);
    * ``rerank_all_mismatches``: with ``rerank_k`` large enough to rerank
      every scanned candidate, the quantized path must be bit-identical
      (ids and distances) to the exact index — expected 0;
    * ``batch_parity_mismatches``: the batched quantized path must agree
      with the single-query path bit for bit (ids and distances) —
      expected 0;
    * code/vector coherence after LIRE churn (inserts + deletes + drain)
      audited by ``check_invariants`` — expected 0 mismatching postings;
    * a recall-vs-bytes ablation (exact / PQ m=8 / PQ m=16 / SQ8).
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
    queries = _queries(dataset, n_queries, seed)
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
        before = index.ssd.stats.snapshot()
        results = [
            index.query(QueryRequest.single(q, k=scale.k, nprobe=nprobe)).result
            for q in queries
        ]
        return results, index.ssd.stats.since(before)

    e_results, e_window = sweep(exact_index)
    q_results, q_window = sweep(quant_index)
    e_lat = [r.latency_us for r in e_results]
    q_lat = [r.latency_us for r in q_results]
    exact_recall = recall_at_k([r.ids for r in e_results], truth, scale.k)
    quant_recall = recall_at_k([r.ids for r in q_results], truth, scale.k)

    # Batched-vs-single parity: the grouped scan must reproduce the
    # single-query path bit for bit.
    batch_mismatches = _mismatches(
        q_results,
        quant_index.query(QueryRequest(vectors=queries, k=scale.k, nprobe=nprobe)),
    )

    # Rerank-everything parity: every scanned candidate reranked against
    # exact vectors must reproduce the exact search bit for bit.
    head = queries[: min(32, len(queries))]
    mismatches = _mismatches(
        [
            exact_index.query(QueryRequest.single(q, k=scale.k, nprobe=nprobe)).result
            for q in head
        ],
        [
            quant_index.query(
                QueryRequest.single(q, k=scale.k, nprobe=nprobe, rerank_k=10**6)
            ).result
            for q in head
        ],
    )

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
        results, window = sweep(index)
        ablation[label] = (
            index.quantizer.code_bytes,
            recall_at_k([r.ids for r in results], truth, scale.k),
            window.bytes_read / n_queries,
        )

    deterministic = {
        "exact_recall_at_k": _round(exact_recall, 4),
        "quant_recall_at_k": _round(quant_recall, 4),
        "quant_recall_ratio": _ratio(quant_recall, exact_recall, 4),
        "rerank_all_mismatches": float(mismatches),
        "batch_parity_mismatches": float(batch_mismatches),
        "quant_code_mismatch_postings": float(len(audit.code_mismatches)),
        "quant_lost_vectors": float(len(audit.lost_vectors)),
        "exact_read_bytes_per_query": _round(e_window.bytes_read / n_queries),
        "quant_read_bytes_per_query": _round(q_window.bytes_read / n_queries),
        "quant_read_bytes_speedup": _ratio(
            e_window.bytes_read, q_window.bytes_read
        ),
        "quant_latency_speedup": _ratio(
            float(np.mean(e_lat)), float(np.mean(q_lat))
        ),
        "exact_entries_scanned_mean": _round(
            np.mean([r.entries_scanned for r in e_results])
        ),
        "quant_entries_scanned_mean": _round(
            np.mean([r.entries_scanned for r in q_results])
        ),
        "quant_reranked_entries_mean": _round(
            np.mean([r.reranked_entries for r in q_results])
        ),
        **percentile_metrics(e_lat, "exact_latency_us"),
        **percentile_metrics(q_lat, "quant_latency_us"),
        **percentile_metrics(
            [r.io_latency_us for r in e_results], "exact_io_latency_us"
        ),
        **percentile_metrics(
            [r.io_latency_us for r in q_results], "quant_io_latency_us"
        ),
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
    )


def scenario_cluster(scale: PerfScale, seed: int) -> ScenarioResult:
    """Centroid-routed cluster vs broadcast: routing accuracy, splits, procs.

    Builds a :class:`~repro.distributed.ClusterSPFresh` (replication
    factor 2) over the clustered base set and measures the three claims
    the cluster model makes (docs/distributed.md):

    * **routing preserves accuracy** — the routed path probes only
      ``cluster_nprobe`` of the shards per query; its recall against
      brute force must stay within 0.95x of the broadcast oracle's
      (``routing_recall_ratio`` claimed >= 0.95) while
      ``shards_probed_fraction`` stays < 1.0. Simulated latency is
      max-of-probed-shards + route + merge cost, so routing also shows up
      as a gated ``routed_latency_speedup`` over broadcast;
    * **growth preserves conservation** — a seeded hot-region insert
      storm pushes one shard over ``cluster_split_threshold``;
      ``maybe_split()`` carves its centroid group and migrates the
      rerouted vectors, and ``check_cluster_invariants`` audits the
      cross-shard conservation story (``conservation_violations`` claimed
      0). A post-split routed-vs-broadcast sweep
      (``post_split_recall_ratio``) shows routing survives the topology
      change;
    * **process fan-out is bit-exact** — the same request answered with
      ``query(request, pool=)`` on forked workers (they inherit the
      build-state shards, so no pickling and no divergence) must equal
      the routed path's exact ids and distances
      (``process_parity_mismatches`` claimed 0). The pool is forked
      *before* the parent's sweeps because ``query()`` has maintenance
      side effects. On platforms without ``fork`` the counter reads 0.
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
    queries = _queries(dataset, scale.queries, seed)
    truth = exact_knn(
        dataset.base, np.arange(scale.base_vectors), queries, scale.k
    )
    request = QueryRequest(vectors=queries, k=scale.k, nprobe=scale.nprobe)

    # Fork the worker pool from pristine build state, before any parent
    # sweep can schedule maintenance in the parent's copies. The pooled
    # sweep goes through a second router over the same shard groups: a
    # pooled query advances the read counter and ClusterStats like a
    # serial one, and the serial sweeps' replica picks must not depend on
    # whether this platform can fork. Its counter starts where the first
    # router's does, so the pooled sweep asks the replicas `routed` asks,
    # in the state `routed` finds them in.
    pooled_router = ClusterSPFresh(
        cluster.groups, cluster.placement, cluster.directory, config
    )
    pool = pooled_router.worker_pool(fork=True) if fork_available() else None

    # Serial routed sweep (the simulated-metric source). The second sweep
    # stays for its side effects: it advances the read counter and
    # ClusterStats and can schedule replica maintenance, which every
    # later sweep sees.
    routed = cluster.query(request)
    routed_lat = [r.latency_us for r in routed]
    probed_fraction = cluster.shards_probed_fraction()
    cluster.query(request)

    # The same request on the forked workers; parity against the routed
    # response gates at 0.
    process_mismatches = 0
    if pool is not None:
        with pool:
            process_mismatches = _mismatches(
                pooled_router.query(request, pool=pool), routed
            )

    # Broadcast oracle: every shard answers every query.
    broadcast = cluster.query(request, broadcast=True)
    broadcast_lat = [r.latency_us for r in broadcast]

    def recall(response, truth) -> float:
        return recall_at_k([r.ids for r in response], truth, scale.k)

    routed_recall, broadcast_recall = recall(routed, truth), recall(broadcast, truth)

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
    post_routed_recall = recall(cluster.query(request), truth_after)
    post_broadcast_recall = recall(cluster.query(request, broadcast=True), truth_after)
    cluster.close()

    deterministic = {
        "routed_recall_at_k": _round(routed_recall, 4),
        "broadcast_recall_at_k": _round(broadcast_recall, 4),
        "routing_recall_ratio": _ratio(routed_recall, broadcast_recall, 4),
        "shards_probed_fraction": _round(probed_fraction, 4),
        **percentile_metrics(routed_lat, "routed_latency_us"),
        **percentile_metrics(broadcast_lat, "broadcast_latency_us"),
        "routed_latency_speedup": _ratio(
            float(np.mean(broadcast_lat)), float(np.mean(routed_lat))
        ),
        "process_parity_mismatches": float(process_mismatches),
        "shard_splits": float(splits),
        "migrated_vectors": float(cluster.stats.migrated_vectors),
        "shards_before_split": float(shards_before),
        "shards_after_split": float(cluster.num_shards),
        "conservation_violations": float(audit.conservation_violations),
        "cluster_live_vectors": float(audit.cluster_live_vectors),
        "post_split_recall_ratio": _ratio(
            post_routed_recall, post_broadcast_recall, 4
        ),
        "post_split_routed_recall_at_k": _round(post_routed_recall, 4),
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
    for i in range(scale.recovery_updates):
        if i % 4 == 3:
            index.delete(int(rng.integers(len(dataset.base))))
        else:
            index.insert(3_000_000 + i, dataset.pool[i])
    wal_bytes = wal.size_bytes()
    live_before = index.live_vector_count

    io_before = index.ssd.stats.snapshot()
    recovered = SPFreshIndex.recover(index.ssd, config, snapshots, wal=wal)
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
    return ScenarioResult(
        scenario="recovery",
        config={
            **_scenario_config(scale, seed, config),
            "recovery_updates": scale.recovery_updates,
        },
        deterministic=deterministic,
    )


def scenario_cache(scale: PerfScale, seed: int) -> ScenarioResult:
    """Cached vs uncached search: the posting-cache ablation's trajectory."""
    _, config, index, queries = _standard(scale, seed)

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
        results = [searcher.search(q, scale.k, nprobe=scale.nprobe) for q in queries]
        return [r.latency_us for r in results], [r.io_latency_us for r in results]

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

    deterministic = {
        **percentile_metrics(uncached_lat, "uncached_latency_us"),
        **percentile_metrics(cached_lat, "cached_latency_us"),
        **percentile_metrics(uncached_io, "uncached_io_latency_us"),
        **percentile_metrics(cached_io, "cached_io_latency_us"),
        "cache_hit_rate": _round(cached_controller.hit_rate, 4),
        "cache_speedup": _ratio(
            float(np.mean(uncached_lat)), float(np.mean(cached_lat))
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
    )


def scenario_serving(scale: PerfScale, seed: int) -> ScenarioResult:
    """Open-loop serving: admission + dynamic batching vs unbatched.

    One seeded bursty, hot-key-skewed, multi-tenant arrival trace is
    served twice through ``repro.serving.ServingFrontend`` over the same
    freshly built index: once with the dynamic batcher (config knobs) and
    once unbatched (``max_batch=1``, ``max_wait_us=0`` — the baseline a
    serving layer must beat). Everything runs on the simulated clock, so
    goodput, tail latency, SLO-violation rate, and shed rate gate in CI;
    ``goodput_speedup`` is the batched-beats-unbatched claim itself
    (claimed > 1).
    """
    from repro.datasets import make_arrival_trace
    from repro.serving import ServingFrontend

    _, config, index, pool = _standard(scale, seed)
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

    batched = ServingFrontend.from_config(
        index.searcher, config, k=scale.k, nprobe=scale.nprobe
    ).run(trace)
    unbatched = ServingFrontend.from_config(
        index.searcher,
        config,
        k=scale.k,
        nprobe=scale.nprobe,
        max_batch=1,
        max_wait_us=0.0,
    ).run(trace)

    bm = batched.metrics()
    um = unbatched.metrics()
    deterministic = {
        "goodput_qps": _round(bm["goodput_qps"]),
        "unbatched_goodput_qps": _round(um["goodput_qps"]),
        "goodput_speedup": _ratio(bm["goodput_qps"], um["goodput_qps"]),
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
    )


def scenario_serving_concurrent(scale: PerfScale, seed: int) -> ScenarioResult:
    """K-worker serving: goodput scaling, DWRR fairness, pool parity.

    Three claims, one scenario:

    * **goodput scales with workers** — a saturating Poisson trace (rate
      far above one worker's drain rate) runs through the frontend at
      ``num_workers=1`` and ``num_workers=serve_workers``; simulated
      goodput must scale (``workers_goodput_speedup`` claimed >= 2 at
      K=4). Deterministic: both runs are pure functions of the trace.
    * **DWRR bounds the victims' tail** — a hot-key-skewed trace with one
      dominant tenant (8x the others' weight) runs FIFO vs DWRR at the
      same K. The *victim* p99 (worst p99 among non-dominant tenants)
      must not be worse under DWRR (``dwrr_fairness_speedup``, FIFO's
      victim p99 over DWRR's, claimed >= 1); per-tenant p99 spreads for
      both policies ship alongside.
    * **wall-clock pools are bit-exact** — the exact batch schedule the
      K-worker run produced replays serially, on a shared-engine thread
      pool, and (where ``fork`` exists) on a forked worker pool; every
      seat's (ids, distances) must match the serial replay
      (``pool_parity_mismatches`` / ``process_parity_mismatches`` claimed
      0). The pools run at the searcher layer, which has no maintenance
      side effects, so parity is exact by construction.
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

    _, config, index, pool_queries = _standard(scale, seed)

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

    # --- pool replays of the K-worker batch schedule --------------------
    jobs = batch_jobs(saturating, pooled)
    def replayed(pool=None):
        return replay(index.searcher, jobs, scale.k, scale.nprobe, pool=pool)

    serial = replayed()
    with replay_pool(index.searcher, scale.serve_workers, fork=False) as threads:
        thread_mismatches = count_mismatches(serial, replayed(threads))
    process_mismatches = 0
    if fork_available():
        with replay_pool(index.searcher, scale.serve_workers, fork=True) as procs:
            process_mismatches = count_mismatches(serial, replayed(procs))

    deterministic = {
        "single_worker_goodput_qps": _round(sm["goodput_qps"]),
        "pool_goodput_qps": _round(pm["goodput_qps"]),
        "workers_goodput_speedup": _ratio(pm["goodput_qps"], sm["goodput_qps"]),
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
        "dwrr_fairness_speedup": _ratio(fifo_victim, dwrr_victim),
        "fifo_tenant_p99_spread": _round(fifo.tenant_p99_spread(), 4),
        "dwrr_tenant_p99_spread": _round(dwrr.tenant_p99_spread(), 4),
        "fifo_shed_rate": _round(fifo.metrics()["shed_rate"], 4),
        "dwrr_shed_rate": _round(dwrr.metrics()["shed_rate"], 4),
        "replayed_batches": float(len(jobs)),
        "pool_parity_mismatches": float(thread_mismatches),
        "process_parity_mismatches": float(process_mismatches),
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
    "serving": scenario_serving,
    "serving_concurrent": scenario_serving_concurrent,
}


# ----------------------------------------------------------------------
# claims
# ----------------------------------------------------------------------
# What a scenario must show whatever the baseline reads, as rows of
# (metric, op, bound). ``--compare`` is relative: a base that already
# broke a claim passes a change that breaks it the same way. These are
# checked on every run.
CLAIMS: dict[str, tuple[tuple[str, str, float], ...]] = {
    "fresh_tier": (
        ("search_parity_mismatches", "==", 0),
        ("batch_single_mismatches", "==", 0),
        ("fresh_write_amp_speedup", ">", 1.0),
    ),
    "quantized": (
        ("quant_recall_ratio", ">=", 0.95),
        ("rerank_all_mismatches", "==", 0),
        ("batch_parity_mismatches", "==", 0),
        ("quant_code_mismatch_postings", "==", 0),
        ("quant_lost_vectors", "==", 0),
        ("quant_read_bytes_speedup", ">", 1.0),
        ("quant_latency_speedup", ">", 1.0),
    ),
    "cluster": (
        ("routing_recall_ratio", ">=", 0.95),
        ("shards_probed_fraction", "<", 1.0),
        ("conservation_violations", "==", 0),
        ("process_parity_mismatches", "==", 0),
        ("shard_splits", ">=", 1),
        ("post_split_recall_ratio", ">=", 0.95),
    ),
    "recovery": (
        ("live_vector_drift", "==", 0),
        ("recovery_apply_errors", "==", 0),
        ("wal_records_quarantined", "==", 0),
    ),
    "serving": (("goodput_speedup", ">", 1.0),),
    "serving_concurrent": (
        ("workers_goodput_speedup", ">=", 2.0),
        # DWRR's victim p99 no worse than FIFO's; 0 (fails) when no
        # victim was answered under DWRR.
        ("dwrr_fairness_speedup", ">=", 1.0),
        ("pool_parity_mismatches", "==", 0),
        ("process_parity_mismatches", "==", 0),
    ),
}

_CLAIM_OPS = {"==": operator.eq, "<": operator.lt, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class ClaimCheck:
    """One ``CLAIMS`` row evaluated against one scenario's document."""

    scenario: str
    metric: str
    op: str
    bound: float
    value: float | None  # None: the scenario no longer emits the metric

    @property
    def ok(self) -> bool:
        return self.value is not None and _CLAIM_OPS[self.op](self.value, self.bound)

    def __str__(self) -> str:
        shown = "missing" if self.value is None else f"{self.value:g}"
        return (
            f"[claim] {'ok' if self.ok else 'FAILED'} {self.scenario}."
            f"{self.metric} = {shown} (claim: {self.op} {self.bound:g})"
        )


def check_claims(docs: dict[str, dict]) -> list[ClaimCheck]:
    """Evaluate every ``CLAIMS`` row whose scenario is among ``docs``."""
    return [
        ClaimCheck(
            scenario, metric, op, bound, docs[scenario]["deterministic"].get(metric)
        )
        for scenario, rows in CLAIMS.items()
        if scenario in docs
        for metric, op, bound in rows
    ]


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
    """Per-scenario table for PR logs: metric count and claims verdict."""
    checks = check_claims({r.scenario: r.to_document() for r in results})
    rows = []
    for result in results:
        mine = [c for c in checks if c.scenario == result.scenario]
        failed = [c.metric for c in mine if not c.ok]
        if failed:
            verdict = "FAILED: " + ", ".join(failed)
        else:
            verdict = f"{len(mine)}/{len(mine)} hold" if mine else "—"
        rows.append((result.scenario, len(result.deterministic), verdict))
    return format_markdown_table(
        ["scenario", "gated metrics", "claims"],
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

    @property
    def change(self) -> str:
        return f"{self.rel_change:+.1%}" if math.isfinite(self.rel_change) else "inf"


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
                    delta.change,
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
            lines.append(
                f"  REGRESSION {delta.scenario}.{delta.metric}: "
                f"{delta.baseline} -> {delta.current} ({delta.change})"
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
    """Compare the deterministic sections (any schema version)."""
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
def add_perf_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the harness's own flags on the ``repro perf`` subparser.

    ``--scale``, ``--seed`` and ``--report`` come from the parent parsers
    every benchmark-shaped ``repro`` subcommand shares.
    """
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
        help="skip running scenarios (and their claims); just compare "
        "--out against --compare",
    )


def run_cli(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Execute one parsed ``repro perf`` invocation.

    A run checks ``CLAIMS`` on its own output and exits 1 on any failed
    or missing claim; ``--compare`` exits 1 on a regression against the
    baseline.
    """
    if args.quick:
        args.scale = "quick"
    scale = PERF_SCALES[args.scale]

    summary_parts: list[str] = []
    exit_code = 0
    if not args.compare_only:
        results = run_scenarios(
            scale, seed=args.seed, scenarios=args.scenarios, progress=True
        )
        paths = write_results(results, args.out)
        print(f"[perf] wrote {len(paths)} files to {Path(args.out).resolve()}")
        for check in check_claims({r.scenario: r.to_document() for r in results}):
            print(check)
            exit_code |= not check.ok
        summary_parts.append(run_markdown_summary(results))

    if args.compare is not None:
        report = compare_dirs(args.compare, args.out, args.tolerance)
        summary_parts.append(report.markdown())
        print(report.summary())
        exit_code |= not report.ok
    elif args.compare_only:
        parser.error("--compare-only requires --compare")

    summary = "\n\n".join(summary_parts)
    if summary:
        print()
        print(summary)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(summary + "\n")
    return exit_code


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench.perf ARGS`` is ``python -m repro perf ARGS``."""
    from repro.cli import main as cli_main

    return cli_main(["perf", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
