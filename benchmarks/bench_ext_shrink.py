"""Extension bench — delete-heavy shrinkage: the merge path under load.

Figure 7's 1-in-1-out churn exercises splits far more than merges. This
bench drives the opposite regime: a corpus that *halves* through a
delete-heavy stream. LIRE's merge + GC must shrink the posting table and
keep per-query I/O proportional to the live data; the SPANN+ comparison
shows what happens without the rebuilder — the posting table stays at its
high-water mark and queries keep paying for dead entries until GC runs.
"""

import numpy as np

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.api import QueryRequest
from repro.baselines import build_spann_plus
from repro.bench.reporting import format_table
from repro.core.index import SPFreshIndex
from repro.core.maintenance import MaintenanceScanner
from repro.datasets import GroundTruthTracker, make_sift_like
from repro.metrics import recall_at_k


def test_ext_delete_heavy_shrink(benchmark, scale):
    total = scale.base_vectors
    dataset = make_sift_like(total, 0, dim=DIM, seed=29)
    queries = dataset.base[total // 2 :][: scale.queries] + 0.01
    delete_ids = np.arange(total // 2)  # the first half dies

    def run(index, use_scanner):
        tracker = GroundTruthTracker(np.arange(total), dataset.base)
        before_entries = index.controller.total_entries()
        for vid in delete_ids:
            index.delete(int(vid))
            tracker.delete(int(vid))
        if use_scanner:
            MaintenanceScanner(index, garbage_threshold=0.3).scan()
        index.drain()
        gt = tracker.ground_truth(queries, 10)
        ids, latencies = [], []
        for q in queries:
            r = index.query(QueryRequest.single(q, k=10, nprobe=8)).result
            ids.append(r.ids)
            latencies.append(r.latency_us)
        snap = index.stats.snapshot()
        return {
            "recall": recall_at_k(ids, gt, 10),
            "latency": float(np.mean(latencies)),
            "postings": index.num_postings,
            "entries_before": before_entries,
            "entries_after": index.controller.total_entries(),
            "merges": snap.merges,
        }

    def experiment():
        spfresh = SPFreshIndex.build(dataset.base, config=spfresh_config())
        spf = run(spfresh, use_scanner=True)
        spann_plus = build_spann_plus(dataset.base, config=spfresh_config())
        spp = run(spann_plus, use_scanner=False)
        return spf, spp

    spf, spp = run_once(benchmark, experiment)

    rows = [
        (
            name,
            r["recall"],
            r["latency"],
            r["postings"],
            r["entries_before"],
            r["entries_after"],
            r["merges"],
        )
        for name, r in (("SPFresh + scanner", spf), ("SPANN+ (no rebuilder)", spp))
    ]
    print()
    print(
        format_table(
            ["system", "recall", "latency us", "postings", "entries before", "entries after", "merges"],
            rows,
            title="Extension: corpus halves via deletes",
        )
    )
    # SPFresh reclaims: merges ran, on-disk entries shrink toward the live set.
    assert spf["merges"] > 0
    assert spf["entries_after"] < spf["entries_before"] * 0.7
    # SPANN+ keeps its high-water mark (no merges; GC not run here).
    assert spp["merges"] == 0
    assert spp["entries_after"] == spp["entries_before"]
    # Both still answer correctly over the surviving half.
    assert spf["recall"] > 0.85 and spp["recall"] > 0.85
