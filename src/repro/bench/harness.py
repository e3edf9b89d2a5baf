"""Day-by-day update-simulation driver (the engine behind Figures 7 & 9).

The driver runs one engine through a :class:`repro.datasets.Workload`:
each simulated day it interleaves the epoch's deletes and inserts, lets the
engine do its maintenance (``drain``: LIRE jobs, or FreshDiskANN's merge
window; plus SPANN+'s periodic GC), recomputes exact ground truth over the
live set, and measures search recall + latency percentiles, update
latency/throughput, memory, and device I/O.

An engine is anything that answers ``query(QueryRequest)``, ``insert``,
``delete``, ``drain`` and ``memory_bytes`` and has a simulated ``ssd``:
``SPFreshIndex`` (SPANN+ is the same class with LIRE switched off) and
``FreshDiskANNIndex``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.api import QueryRequest
from repro.datasets.groundtruth import GroundTruthTracker
from repro.datasets.workloads import Workload
from repro.metrics.latency import LatencyTracker
from repro.metrics.recall import recall_at_k


# Paper Table 2: thread allocation for the overall-performance experiment
# (per system: insert / delete / search / background). At reproduction
# scale threads are simulated work streams, but the presets document the
# paper's resource envelope and are printed by the fig7/fig9 benches.
TABLE2_THREAD_ALLOCATION = {
    "DiskANN": {"insert": 3, "delete": 1, "search": 2, "background": 10, "total": 16},
    "SPANN+": {"insert": 1, "delete": 1, "search": 2, "background": 2, "total": 6},
    "SPFresh": {"insert": 1, "delete": 1, "search": 2, "background": 2, "total": 6},
}

# Paper Table 3: SPFresh thread allocation for the billion-scale stress
# test (delete/re-insert, search, background SPDK + rebuild).
TABLE3_THREAD_ALLOCATION = {
    "delete/re-insert": 4,
    "search": 8,
    "background": 3,
    "total": 15,
}


@dataclass
class DayMetrics:
    """Everything Figure 7/9 plot, for one simulated day of one system."""

    day: int
    recall: float
    search_p50_us: float
    search_p90_us: float
    search_p95_us: float
    search_p99_us: float
    search_p999_us: float
    insert_mean_us: float
    insert_p999_us: float
    insert_wall_qps: float
    search_wall_qps: float
    memory_mb: float
    device_iops: float
    live_vectors: int


def run_update_simulation(
    engine,
    workload: Workload,
    k: int = 10,
    nprobe: int | None = None,
    queries_per_day: int | None = None,
    progress: str = "",
    gc_every: int | None = None,
) -> list[DayMetrics]:
    """Run a full multi-day update workload and measure every day.

    ``gc_every`` runs ``engine.gc_pass()`` after every that-many days'
    drain: SPANN+'s periodic background GC in place of split-time GC. A
    ``progress`` label prints one line per day under that name.
    """
    tracker = GroundTruthTracker(workload.base_ids, workload.base_vectors)
    queries = workload.queries
    if queries_per_day is not None:
        queries = queries[:queries_per_day]
    results: list[DayMetrics] = []
    for day, epoch in enumerate(workload.epochs, 1):
        insert_lat = LatencyTracker()
        io_before = engine.ssd.stats.snapshot()
        wall_start = time.perf_counter()
        # Interleave deletes and inserts, as a live service would see them.
        pairs = max(len(epoch.delete_ids), len(epoch.insert_ids))
        for i in range(pairs):
            if i < len(epoch.delete_ids):
                engine.delete(int(epoch.delete_ids[i]))
            if i < len(epoch.insert_ids):
                insert_lat.record(
                    engine.insert(int(epoch.insert_ids[i]), epoch.insert_vectors[i])
                )
        engine.drain()
        if gc_every and day % gc_every == 0:
            engine.gc_pass()
        update_wall = time.perf_counter() - wall_start

        tracker.apply_epoch(epoch)
        ground_truth = tracker.ground_truth(queries, k)

        search_lat = LatencyTracker()
        result_ids = []
        search_start = time.perf_counter()
        for query in queries:
            res = engine.query(QueryRequest.single(query, k=k, nprobe=nprobe))
            search_lat.record(res.latency_us)
            result_ids.append(res.ids)
        search_wall = time.perf_counter() - search_start

        io_after = engine.ssd.stats.snapshot()
        window = io_after.delta(io_before)
        day_wall = update_wall + search_wall
        metrics = DayMetrics(
            day=epoch.day,
            recall=recall_at_k(result_ids, ground_truth, k),
            search_p50_us=search_lat.percentile(50),
            search_p90_us=search_lat.percentile(90),
            search_p95_us=search_lat.percentile(95),
            search_p99_us=search_lat.percentile(99),
            search_p999_us=search_lat.percentile(99.9),
            insert_mean_us=insert_lat.mean,
            insert_p999_us=insert_lat.percentile(99.9),
            insert_wall_qps=(
                len(epoch.insert_ids) / update_wall if update_wall > 0 else 0.0
            ),
            search_wall_qps=len(queries) / search_wall if search_wall > 0 else 0.0,
            memory_mb=engine.memory_bytes() / (1024 * 1024),
            device_iops=window.iops(day_wall),
            live_vectors=tracker.live_count,
        )
        results.append(metrics)
        if progress:
            print(
                f"[{progress}] day {epoch.day:3d} "
                f"recall={metrics.recall:.3f} "
                f"p99.9={metrics.search_p999_us / 1000:.2f}ms "
                f"mem={metrics.memory_mb:.2f}MB"
            )
    return results


def summarize(results: list[DayMetrics]) -> dict[str, float]:
    """Aggregate a day series into the headline numbers the paper quotes."""
    if not results:
        return {}
    return {
        "mean_recall": float(np.mean([r.recall for r in results])),
        "final_recall": results[-1].recall,
        "mean_p999_ms": float(np.mean([r.search_p999_us for r in results])) / 1000,
        "max_p999_ms": float(np.max([r.search_p999_us for r in results])) / 1000,
        "mean_insert_us": float(np.mean([r.insert_mean_us for r in results])),
        "peak_memory_mb": float(np.max([r.memory_mb for r in results])),
        "mean_memory_mb": float(np.mean([r.memory_mb for r in results])),
    }
