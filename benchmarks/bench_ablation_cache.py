"""Ablation — posting cache in front of the device (page-cache effect).

Disk ANNS deployments serve repeat probes from DRAM; the device only sees
cache misses. This bench runs a Zipf-skewed query stream (hot queries
repeat, as production traffic does) with and without the LRU posting
cache and measures device reads, hit rate, and simulated latency.
"""

import numpy as np

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.api import QueryRequest
from repro.bench.reporting import format_table
from repro.core.index import SPFreshIndex
from repro.datasets import make_spacev_like
from repro.storage.cache import CachedBlockController

QUERY_STREAM = 600


def test_ablation_posting_cache(benchmark, scale):
    dataset = make_spacev_like(scale.base_vectors, 0, dim=DIM, seed=31)
    rng = np.random.default_rng(31)
    # Zipf-repeating query stream over a small hot set + random tail.
    hot = dataset.base[rng.choice(scale.base_vectors, 20, replace=False)]
    stream = []
    for _ in range(QUERY_STREAM):
        if rng.random() < 0.8:
            stream.append(hot[int(rng.integers(len(hot)))])
        else:
            stream.append(dataset.base[int(rng.integers(scale.base_vectors))])

    def run(cache_capacity):
        index = SPFreshIndex.build(dataset.base, config=spfresh_config())
        cache = None
        if cache_capacity:
            cache = CachedBlockController(
                index.controller, capacity=cache_capacity
            )
            index.searcher.controller = cache
        io_before = index.ssd.stats.snapshot()
        latencies = [
            index.query(QueryRequest.single(q + np.float32(0.01), k=10, nprobe=8)).result.latency_us
            for q in stream
        ]
        window = index.ssd.stats.snapshot().delta(io_before)
        return {
            "latency": float(np.mean(latencies)),
            "p99": float(np.percentile(latencies, 99)),
            "device_reads": window.block_reads,
            "hit_rate": cache.hit_rate if cache else 0.0,
            "cache_mb": (cache.memory_bytes() / 2**20) if cache else 0.0,
        }

    def experiment():
        return {cap: run(cap) for cap in (0, 64, 256, 1024)}

    results = run_once(benchmark, experiment)

    rows = [
        (
            "off" if cap == 0 else cap,
            r["latency"],
            r["p99"],
            r["device_reads"],
            r["hit_rate"],
            r["cache_mb"],
        )
        for cap, r in results.items()
    ]
    print()
    print(
        format_table(
            ["cache postings", "mean lat us", "p99 us", "device block reads", "hit rate", "cache MB"],
            rows,
            title="Ablation: LRU posting cache under a hot query stream",
        )
    )
    off = results[0]
    big = results[1024]
    assert big["device_reads"] < off["device_reads"] * 0.5
    assert big["latency"] < off["latency"]
    assert big["hit_rate"] > 0.5
