"""Extension bench — insert-only growth (the paper's §2.3 freshness demand).

The paper motivates SPFresh with services whose corpora only grow
(retrieval plugins, JD's 1B new images/day). This bench doubles the index
size through insert-only epochs on drifted data and checks the properties
a growing service needs: fresh inserts recallable immediately, tail
latency flat while the dataset doubles, and memory growing linearly (no
rebuild-style spikes).
"""

import numpy as np

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.api import QueryRequest
from repro.bench.harness import run_update_simulation
from repro.bench.reporting import format_series
from repro.core.index import SPFreshIndex
from repro.datasets import workload_d
from repro.metrics import recall_at_k


def test_ext_insert_only_growth(benchmark, scale):
    workload = workload_d(
        n_base=scale.base_vectors,
        days=scale.days,
        daily_growth=1.0 / scale.days,  # double the corpus over the run
        dim=DIM,
        num_queries=scale.queries,
        seed=17,
    )
    config = spfresh_config()

    def experiment():
        index = SPFreshIndex.build(
            workload.base_vectors, ids=workload.base_ids, config=config
        )
        series = run_update_simulation(index, workload, k=10)
        # Freshness probe: the final epoch's inserts must be recallable now.
        last = workload.epochs[-1]
        probes = last.insert_vectors[:40] + np.float32(0.01)
        ids = [index.query(QueryRequest.single(q, k=10)).result.ids for q in probes]
        truth = [[vid] for vid in last.insert_ids[:40]]
        fresh_recall = recall_at_k(ids, truth, 1)
        return series, fresh_recall, index

    series, fresh_recall, index = run_once(benchmark, experiment)

    print()
    print(
        format_series(
            series,
            fields=("day", "recall", "search_p999_us", "memory_mb", "live_vectors"),
            every=max(1, scale.days // 8),
            title="Extension: insert-only growth (corpus doubles)",
        )
    )
    print(f"freshness: last-epoch inserts recalled at {fresh_recall:.2f}")

    first, last = series[0], series[-1]
    assert last.live_vectors >= int(first.live_vectors * 1.8)
    # Tail latency stays flat while the corpus doubles (LIRE splits keep
    # postings bounded, so per-query I/O is unchanged).
    assert last.search_p999_us <= first.search_p999_us * 2.0 + 500
    # Recall holds up and the newest data is immediately visible.
    assert last.recall >= first.recall - 0.05
    assert fresh_recall > 0.9
    # Memory grows roughly linearly with postings, not in rebuild spikes.
    memories = np.array([d.memory_mb for d in series])
    assert memories.max() <= memories[-1] * 1.05 + 0.01
