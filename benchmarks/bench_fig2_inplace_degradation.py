"""Figure 2 — Naive in-place updates degrade recall and tail latency.

Paper setup: a *static* SPANN index over 2M vectors versus an index built
from 1.5M vectors plus 0.5M naive in-place updates (Vearch-style appends,
no rebalancing). Updating one third of the vectors costs >1 recall point
and 4x tail latency. We replay the same 3:1 ratio at reproduction scale
with SPANN+ (the append-only variant) and report recall / P99 latency at
matched nprobe settings.
"""

import numpy as np

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.api import QueryRequest
from repro.baselines import build_spann_plus
from repro.bench.reporting import format_table
from repro.core.index import SPFreshIndex
from repro.datasets import GroundTruthTracker, make_spacev_like
from repro.metrics import LatencyTracker, recall_at_k


def test_fig2_inplace_degradation(benchmark, scale):
    total = scale.base_vectors
    base_n = total * 3 // 4
    churn_n = total - base_n
    dataset = make_spacev_like(total, churn_n, dim=DIM, seed=1)
    queries = dataset.base[: scale.queries] + 0.01
    config = spfresh_config(search_latency_budget_us=None)

    def experiment():
        # Static reference: all vectors indexed at build time.
        static = SPFreshIndex.build(dataset.base, config=config)
        # In-place: build on a prefix, churn in pool + delete base suffix.
        inplace = build_spann_plus(dataset.base[:base_n], config=config)
        tracker = GroundTruthTracker(np.arange(base_n), dataset.base[:base_n])
        for i in range(churn_n):
            vid = total + i
            inplace.insert(vid, dataset.pool[i])
            tracker.insert(vid, dataset.pool[i])
            victim = i  # delete the oldest base vectors
            inplace.delete(victim)
            tracker.delete(victim)
        return static, inplace, tracker

    static, inplace, tracker = run_once(benchmark, experiment)

    static_gt = GroundTruthTracker(
        np.arange(len(dataset.base)), dataset.base
    ).ground_truth(queries, 10)
    inplace_gt = tracker.ground_truth(queries, 10)

    rows = []
    for nprobe in (4, 8, 16):
        for name, index, gt in (
            ("static", static, static_gt),
            ("in-place update", inplace, inplace_gt),
        ):
            lat = LatencyTracker()
            ids = []
            for q in queries:
                r = index.query(QueryRequest.single(q, k=10, nprobe=nprobe)).result
                lat.record(r.latency_us)
                ids.append(r.ids)
            rows.append(
                (
                    name,
                    nprobe,
                    recall_at_k(ids, gt, 10),
                    lat.percentile(99) / 1000,
                    lat.percentile(99.9) / 1000,
                )
            )
    print()
    print(
        format_table(
            ["system", "nprobe", "recall10@10", "p99 ms", "p99.9 ms"],
            rows,
            title="Figure 2 (reproduction): static vs naive in-place",
        )
    )
    # Shape check: at the matched nprobe, in-place is never better and its
    # tail latency is strictly worse (posting growth → more blocks read).
    static_rows = [r for r in rows if r[0] == "static"]
    inplace_rows = [r for r in rows if r[0] != "static"]
    assert np.mean([r[3] for r in inplace_rows]) > np.mean(
        [r[3] for r in static_rows]
    )
