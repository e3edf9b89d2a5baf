"""Distributed SPFresh: scatter-gather over hash-placed shards.

The paper closes by positioning single-node SPFresh as the foundation for
a distributed version. This example runs that extension in its baseline
form: a 4-shard ``ClusterSPFresh`` with a ``HashPlacement`` serving the
same API, with updates routed to single shards by id hash and queries
fanned out to every shard and merged. (Drop ``placement=`` for the
default centroid placement, which probes only the shards that matter.)

Run:  python examples/distributed_shards.py
"""

import numpy as np

from repro.api import QueryRequest
from repro import SPFreshConfig
from repro.datasets import exact_knn, make_spacev_like
from repro.distributed import ClusterSPFresh, HashPlacement
from repro.metrics import recall_at_k

DIM = 32


def main() -> None:
    dataset = make_spacev_like(6000, 600, dim=DIM, seed=11)
    # The context manager shuts every shard's background workers down
    # on exit.
    with ClusterSPFresh.build(
        dataset.base, config=SPFreshConfig(dim=DIM), placement=HashPlacement(4)
    ) as cluster:
        print(f"4-shard cluster: shard sizes {cluster.shard_sizes()}, "
              f"{cluster.num_postings} postings total")

        # Scatter-gather search quality matches a single node; the
        # batched facade answers the whole query set in one pass per
        # shard (one ParallelGET each).
        queries = dataset.base[:40] + 0.01
        truth = exact_knn(dataset.base, np.arange(6000), queries, 10)
        results = cluster.query(QueryRequest(vectors=queries, k=10, nprobe=8)).results
        ids = [r.ids for r in results]
        latencies = [r.latency_us for r in results]
        print(f"recall10@10 = {recall_at_k(ids, truth, 10):.3f}, "
              f"mean simulated latency {np.mean(latencies):.0f} us "
              f"(max over shards + route + merge)")

        # Updates are single-shard operations.
        for i, vec in enumerate(dataset.pool):
            cluster.insert(100_000 + i, vec)
        for vid in range(300):
            cluster.delete(vid)
        cluster.drain()
        print(f"after 900 updates: shard sizes {cluster.shard_sizes()} "
              f"(hash routing keeps them balanced)")

        probe = dataset.pool[0]
        result = cluster.query(QueryRequest.single(probe, k=1)).result
        assert result.ids[0] == 100_000
        print("freshly inserted vector is the top hit — done.")


if __name__ == "__main__":
    main()
