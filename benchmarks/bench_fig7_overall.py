"""Figure 7 — Overall performance on Workload A (SPACEV-like, shifting).

Paper: over 100 days of 1% daily churn on data whose distribution shifts,
SPFresh keeps P99.9 latency low and flat (~4 ms), accuracy stable/rising,
insert latency ~1.5 ms, memory ~20 GB; SPANN+'s tail latency climbs past
10 ms as postings grow; DiskANN shows 20 ms+ latency spikes during global
merges, decaying accuracy, slower inserts, and 5x memory.

We replay the same protocol at reproduction scale and check the *shape*:
SPFresh flat and best on every panel; SPANN+ tail grows; DiskANN spikes.
Also prints the §5.2.2 micro-stats (rebalance frequency, reassign counts).
"""


from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.baselines import DiskANNConfig, FreshDiskANNIndex, build_spann_plus
from repro.bench.harness import run_update_simulation, summarize
from repro.bench.reporting import format_series, format_table
from repro.core.index import SPFreshIndex
from repro.datasets import workload_a


def test_fig7_overall_performance(benchmark, scale):
    workload = workload_a(
        n_base=scale.base_vectors,
        days=scale.days,
        daily_rate=scale.daily_rate,
        dim=DIM,
        num_queries=scale.queries,
        seed=0,
    )
    config = spfresh_config()

    def experiment():
        results = {}
        spfresh = SPFreshIndex.build(
            workload.base_vectors, ids=workload.base_ids, config=config
        )
        build_snap = spfresh.stats.snapshot()
        results["SPFresh"] = run_update_simulation(spfresh, workload, k=10)
        results["_build_snap"] = build_snap
        spann_plus = build_spann_plus(
            workload.base_vectors, ids=workload.base_ids, config=config
        )
        results["SPANN+"] = run_update_simulation(
            spann_plus, workload, k=10, gc_every=7
        )
        per_day = max(1, round(scale.base_vectors * scale.daily_rate))
        diskann = FreshDiskANNIndex.build(
            workload.base_vectors,
            ids=workload.base_ids,
            config=DiskANNConfig(
                dim=DIM,
                ssd_blocks=1 << 17,
                merge_threshold=per_day * 3,  # paper: merge every ~3 epochs
            ),
        )
        results["DiskANN"] = run_update_simulation(diskann, workload, k=10)
        return results, spfresh

    results, spfresh = run_once(benchmark, experiment)
    build_snap = results.pop("_build_snap")

    print()
    from repro.analysis import comparison_report
    from repro.bench.figgen import day_series_chart

    print(comparison_report(results))
    print()
    print(day_series_chart(results, "search_p999_us", title="Figure 7: P99.9 latency (us)"))
    print()
    print(day_series_chart(results, "recall", title="Figure 7: recall"))
    print()
    for name, series in results.items():
        print(format_series(series, every=max(1, scale.days // 8), title=f"Figure 7: {name}"))
        print()
    summary_rows = [
        (
            name,
            s["mean_recall"],
            s["final_recall"],
            s["mean_p999_ms"],
            s["max_p999_ms"],
            s["mean_insert_us"],
            s["peak_memory_mb"],
        )
        for name, s in ((n, summarize(r)) for n, r in results.items())
    ]
    print(
        format_table(
            [
                "system",
                "mean recall",
                "final recall",
                "mean p99.9 ms",
                "max p99.9 ms",
                "insert us",
                "peak mem MB",
            ],
            summary_rows,
            title="Figure 7 summary",
        )
    )

    # §5.2.2 micro-stats for SPFresh: deltas over the update phase only
    # (the build-normalization splits are construction work, not updates).
    snap = spfresh.stats.snapshot().delta(build_snap)
    total_inserts = max(snap.inserts, 1)
    histogram = spfresh.replica_histogram()
    total_vec = sum(histogram.values())
    multi = sum(c for r, c in histogram.items() if r > 1)
    mean_replicas = (
        sum(r * c for r, c in histogram.items()) / total_vec if total_vec else 0
    )
    print(
        format_table(
            ["stat", "paper", "measured"],
            [
                ("% inserts causing rebalance", "0.4%", f"{100 * snap.splits / total_inserts:.2f}%"),
                ("max split cascade depth", "3", snap.split_cascade_max_depth),
                ("merge/update frequency", "0.1%", f"{100 * snap.merges / max(snap.inserts + snap.deletes, 1):.2f}%"),
                ("reassigns evaluated : executed", "5094 : 79", f"{snap.reassign_evaluated} : {snap.reassign_executed}"),
                ("% vectors with >1 replica", "86%", f"{100 * multi / max(total_vec, 1):.0f}%"),
                ("mean replicas per vector", "5.47", f"{mean_replicas:.2f}"),
            ],
            title="§5.2.2 micro-stats",
        )
    )

    sp = summarize(results["SPFresh"])
    spp = summarize(results["SPANN+"])
    da = summarize(results["DiskANN"])
    # Shape assertions (who wins):
    assert sp["mean_recall"] >= da["mean_recall"]  # SPFresh beats DiskANN accuracy
    assert sp["max_p999_ms"] <= da["max_p999_ms"]  # no global-merge spikes
    assert sp["mean_insert_us"] < da["mean_insert_us"]  # cheap cluster inserts
    assert sp["peak_memory_mb"] <= da["peak_memory_mb"]  # no merge memory spike
    # SPANN+ postings grow unboundedly; SPFresh tail must not exceed it.
    assert sp["mean_p999_ms"] <= spp["mean_p999_ms"] * 1.05
