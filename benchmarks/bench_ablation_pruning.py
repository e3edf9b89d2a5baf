"""Ablation — SPANN's query-aware dynamic pruning (DESIGN.md add-on).

SPANN prunes candidate postings whose centroid distance exceeds
(1 + eps) x the nearest centroid's distance, so easy queries read fewer
postings. The trade-off measured here: I/O (postings probed, simulated
latency) vs recall, across pruning strengths.
"""

import numpy as np

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.api import QueryRequest
from repro.bench.reporting import format_table
from repro.core.index import SPFreshIndex
from repro.datasets import exact_knn, make_spacev_like
from repro.metrics import recall_at_k

EPSILONS = [None, 1.0, 0.6, 0.3, 0.15]


def test_ablation_query_aware_pruning(benchmark, scale):
    dataset = make_spacev_like(scale.base_vectors, 0, dim=DIM, seed=19)
    queries = dataset.base[: scale.queries] + 0.01
    truth = exact_knn(
        dataset.base, np.arange(scale.base_vectors), queries, 10
    )

    def measure(epsilon):
        config = spfresh_config(search_prune_epsilon=epsilon)
        index = SPFreshIndex.build(dataset.base, config=config)
        ids, latencies, probed = [], [], []
        for q in queries:
            r = index.query(QueryRequest.single(q, k=10, nprobe=16)).result
            ids.append(r.ids)
            latencies.append(r.latency_us)
            probed.append(r.postings_probed)
        return (
            recall_at_k(ids, truth, 10),
            float(np.mean(latencies)),
            float(np.mean(probed)),
        )

    def experiment():
        return {eps: measure(eps) for eps in EPSILONS}

    results = run_once(benchmark, experiment)

    rows = [
        ("off" if eps is None else eps, recall, latency, probed)
        for eps, (recall, latency, probed) in results.items()
    ]
    print()
    print(
        format_table(
            ["prune eps", "recall10@10", "mean latency us", "mean postings probed"],
            rows,
            title="Ablation: query-aware dynamic pruning (nprobe=16)",
        )
    )
    off = results[None]
    tightest = results[EPSILONS[-1]]
    # Tighter pruning reads strictly fewer postings...
    assert tightest[2] < off[2]
    # ...at a bounded recall cost.
    assert tightest[0] >= off[0] - 0.1
    # Latency is monotone-ish with probed postings.
    assert tightest[1] <= off[1]
