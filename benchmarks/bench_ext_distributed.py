"""Extension bench — distributed SPFresh (the paper's future work).

The paper's conclusion positions single-node SPFresh as "a strong
foundation for the future distributed version". This bench measures the
scatter-gather baseline of that extension (``ClusterSPFresh`` under a
``HashPlacement``): recall parity with the single-node index, per-shard
balance under hash routing, and how the simulated query latency (max
over shards + route + merge) and aggregate update throughput behave as
the shard count grows.
"""

import time
from contextlib import nullcontext

import numpy as np

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.api import QueryRequest
from repro.bench.reporting import format_table
from repro.core.index import SPFreshIndex
from repro.datasets import exact_knn, make_sift_like
from repro.distributed import ClusterSPFresh, HashPlacement
from repro.metrics import recall_at_k

SHARD_COUNTS = (1, 2, 4, 8)


def test_ext_distributed_scaling(benchmark, scale):
    dataset = make_sift_like(scale.base_vectors, 600, dim=DIM, seed=13)
    queries = dataset.base[: scale.queries] + 0.01
    truth = exact_knn(
        dataset.base, np.arange(scale.base_vectors), queries, 10
    )
    config = spfresh_config()

    def measure(num_shards: int):
        cm = (
            nullcontext(SPFreshIndex.build(dataset.base, config=config))
            if num_shards == 1
            else ClusterSPFresh.build(
                dataset.base,
                config=config,
                placement=HashPlacement(num_shards),
            )
        )
        with cm as index:
            shard_sizes = (
                index.shard_sizes()
                if isinstance(index, ClusterSPFresh)
                else [index.live_vector_count]
            )
            ids, latencies = [], []
            for q in queries:
                r = index.query(QueryRequest.single(q, k=10, nprobe=8)).result
                ids.append(r.ids)
                latencies.append(r.latency_us)
            recall = recall_at_k(ids, truth, 10)
            start = time.perf_counter()
            for i, vec in enumerate(dataset.pool):
                index.insert(1_000_000 * num_shards + i, vec)
            update_qps = len(dataset.pool) / (time.perf_counter() - start)
            balance = max(shard_sizes) / max(min(shard_sizes), 1)
        return recall, float(np.mean(latencies)), update_qps, balance

    def experiment():
        return {n: measure(n) for n in SHARD_COUNTS}

    results = run_once(benchmark, experiment)

    rows = [
        (n, recall, lat, qps, balance)
        for n, (recall, lat, qps, balance) in results.items()
    ]
    print()
    print(
        format_table(
            ["shards", "recall10@10", "latency us", "update QPS (wall)", "shard max/min"],
            rows,
            title="Extension: sharded SPFresh scaling",
        )
    )
    recalls = [v[0] for v in results.values()]
    balances = [v[3] for v in results.values()]
    # Recall parity: scatter-gather over shards loses nothing vs one node.
    assert max(recalls) - min(recalls) < 0.03
    # Hash routing keeps shards balanced.
    assert all(b < 1.5 for b in balances)
