"""Extension bench — the §2.3 Vearch story: in-place updates need rebuilds.

The paper's motivating observation: Vearch-style in-place updates (insert
to nearest partition, tombstone deletes, frozen centroids) survive only
because of *weekly global rebuilds* — without them, distribution shift
skews partitions and recall/latency decay. This bench replays that story
on the in-memory baseline: churn shifted data in, measure the decay, run
the global rebuild, measure the restoration — and contrast with SPFresh
absorbing the same stream with no rebuild at all.
"""

import numpy as np

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.api import QueryRequest
from repro.baselines.vearch import VearchLikeIndex
from repro.bench.reporting import format_table
from repro.core.index import SPFreshIndex
from repro.datasets import GroundTruthTracker, make_spacev_like
from repro.metrics import recall_at_k


def test_ext_vearch_rebuild_story(benchmark, scale):
    total = scale.base_vectors
    churn = total // 2
    dataset = make_spacev_like(total, churn, dim=DIM, seed=23, drift=0.9)
    queries = dataset.base[: scale.queries] + 0.01

    def run_system(engine, tracker, nprobe=8):
        gt = tracker.ground_truth(queries, 10)
        ids, latencies = [], []
        for q in queries:
            r = engine.query(QueryRequest.single(q, k=10, nprobe=nprobe))
            ids.append(r.ids)
            latencies.append(r.latency_us)
        return recall_at_k(ids, gt, 10), float(np.mean(latencies))

    def experiment():
        vearch = VearchLikeIndex.build(dataset.base, num_partitions=64, seed=2)
        spfresh = SPFreshIndex.build(dataset.base, config=spfresh_config())
        tracker = GroundTruthTracker(np.arange(total), dataset.base)
        before = {
            "vearch": run_system(vearch, tracker),
            "spfresh": run_system(spfresh, tracker),
        }
        for i in range(churn):
            vid = total + i
            vearch.insert(vid, dataset.pool[i])
            spfresh.insert(vid, dataset.pool[i])
            tracker.insert(vid, dataset.pool[i])
            vearch.delete(i)
            spfresh.delete(i)
            tracker.delete(i)
        spfresh.drain()
        after_churn = {
            "vearch": run_system(vearch, tracker),
            "spfresh": run_system(spfresh, tracker),
        }
        skew_before_rebuild = float(
            vearch.partition_sizes().max() / max(vearch.partition_sizes().mean(), 1)
        )
        rebuild_seconds = vearch.rebuild()
        after_rebuild = run_system(vearch, tracker)
        skew_after_rebuild = float(
            vearch.partition_sizes().max() / max(vearch.partition_sizes().mean(), 1)
        )
        return (
            before,
            after_churn,
            after_rebuild,
            rebuild_seconds,
            skew_before_rebuild,
            skew_after_rebuild,
        )

    (
        before,
        after_churn,
        after_rebuild,
        rebuild_seconds,
        skew_before,
        skew_after,
    ) = run_once(benchmark, experiment)

    rows = [
        ("Vearch-like (fresh build)", before["vearch"][0], before["vearch"][1]),
        ("Vearch-like (after 50% shifted churn)", after_churn["vearch"][0], after_churn["vearch"][1]),
        ("Vearch-like (after global rebuild)", after_rebuild[0], after_rebuild[1]),
        ("SPFresh (fresh build)", before["spfresh"][0], before["spfresh"][1]),
        ("SPFresh (after same churn, no rebuild)", after_churn["spfresh"][0], after_churn["spfresh"][1]),
    ]
    print()
    print(
        format_table(
            ["state", "recall10@10", "mean latency us"],
            rows,
            title="§2.3 reproduction: why in-place-only systems rebuild weekly",
        )
    )
    print(
        f"vearch partition skew {skew_before:.2f}x -> {skew_after:.2f}x after a "
        f"{rebuild_seconds:.2f}s global rebuild"
    )

    # Shapes: shifted churn inflates the hot partitions, so Vearch's scan
    # cost degrades; the global rebuild restores the latency profile.
    # SPFresh absorbs the same stream with no rebuild and no degradation.
    # (Partition max/mean skew is reported but not asserted: plain k-means
    # over Zipf-weighted data is inherently uneven, before AND after.)
    assert after_churn["vearch"][1] > before["vearch"][1] * 1.05
    assert after_rebuild[1] <= after_churn["vearch"][1] * 1.05
    assert after_rebuild[1] <= before["vearch"][1] * 1.15
    assert after_churn["spfresh"][0] >= before["spfresh"][0] - 0.05
    assert after_churn["spfresh"][1] <= before["spfresh"][1] * 1.5
