"""Figure 10 — Update-technique ablation under a skewed shift.

Paper: starting from the naive in-place system and adding LIRE components
one at a time — in-place only (SPANN+), +split, +split/reassign (SPFresh)
— each addition moves the recall-vs-latency curve toward the Static
reference (northwest). We replay the §2.3 setting with the same lattice
and sweep nprobe to trace each system's curve.
"""

import numpy as np

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.bench.reporting import format_table
from repro.core.index import SPFreshIndex
from repro.datasets import GroundTruthTracker, make_spacev_like
from repro.metrics import recall_curve

NPROBES = [2, 4, 8, 16, 32]

VARIANTS = {
    "in-place only": dict(enable_split=False, enable_merge=False, enable_reassign=False),
    "+split": dict(enable_split=True, enable_merge=True, enable_reassign=False),
    "+split/reassign": dict(enable_split=True, enable_merge=True, enable_reassign=True),
}


def test_fig10_ablation(benchmark, scale):
    total = scale.base_vectors
    churn = total // 3
    dataset = make_spacev_like(total, churn, dim=DIM, seed=10, drift=0.8)
    queries = dataset.base[: scale.queries] + 0.01
    base_config = spfresh_config(search_latency_budget_us=None)

    def churn_into(index, tracker):
        for i in range(churn):
            vid = total + i
            index.insert(vid, dataset.pool[i])
            tracker.insert(vid, dataset.pool[i])
            index.delete(i)
            tracker.delete(i)
        index.drain()

    def experiment():
        curves = {}
        # Static reference: the final live set indexed from scratch.
        final_live = np.vstack([dataset.base[churn:], dataset.pool])
        final_ids = np.concatenate(
            [np.arange(churn, total), np.arange(total, total + churn)]
        )
        static = SPFreshIndex.build(final_live, ids=final_ids, config=base_config)
        tracker = GroundTruthTracker(final_ids, final_live)
        gt = tracker.ground_truth(queries, 10)
        curves["static"] = recall_curve(static, queries, gt, 10, NPROBES)

        for name, flags in VARIANTS.items():
            config = base_config.with_overrides(**flags)
            index = SPFreshIndex.build(dataset.base, config=config)
            live = GroundTruthTracker(np.arange(total), dataset.base)
            churn_into(index, live)
            gt_v = live.ground_truth(queries, 10)
            curves[name] = recall_curve(index, queries, gt_v, 10, NPROBES)
        return curves

    curves = run_once(benchmark, experiment)

    print()
    rows = [
        (name, nprobe, recall, latency_us / 1000)
        for name, curve in curves.items()
        for nprobe, recall, latency_us in curve
    ]
    print(
        format_table(
            ["system", "nprobe", "recall10@10", "mean latency ms"],
            rows,
            title="Figure 10 (reproduction): recall-latency trade-off",
        )
    )

    def mean_latency(name):
        return np.mean([lat for _, _, lat in curves[name]])

    def mean_recall(name):
        return np.mean([rec for _, rec, _ in curves[name]])

    # Shape: each added component moves the curve toward static (same or
    # better recall at lower latency).
    assert mean_latency("+split") < mean_latency("in-place only")
    assert mean_latency("+split/reassign") <= mean_latency("+split") * 1.1
    assert mean_recall("+split/reassign") >= mean_recall("+split") - 0.02
    # Full SPFresh is the closest to static in latency terms.
    gaps = {
        name: abs(mean_latency(name) - mean_latency("static"))
        for name in VARIANTS
    }
    assert gaps["+split/reassign"] == min(gaps.values())
