"""Head-to-head: SPFresh vs SPANN+ vs DiskANN on a shifting workload.

A miniature of the paper's Figure 7 experiment, runnable in about a
minute: all three systems serve the same week of 2%-daily churn on a
SPACEV-like (skewed, drifting) dataset; the summary table shows who wins
on recall, tail latency, insert cost, and memory.

Run:  python examples/baseline_comparison.py
"""

from repro import SPFreshConfig, SPFreshIndex
from repro.baselines import DiskANNConfig, FreshDiskANNIndex, build_spann_plus
from repro.bench.harness import run_update_simulation, summarize
from repro.bench.reporting import format_table
from repro.datasets import workload_a

DIM = 32


def main() -> None:
    workload = workload_a(
        n_base=4000, days=7, daily_rate=0.02, dim=DIM, num_queries=40
    )
    config = SPFreshConfig(dim=DIM)

    print("running SPFresh...")
    spfresh = SPFreshIndex.build(
        workload.base_vectors, ids=workload.base_ids, config=config
    )
    results = {"SPFresh": run_update_simulation(spfresh, workload, k=10)}

    print("running SPANN+ (append-only)...")
    spann_plus = build_spann_plus(
        workload.base_vectors, ids=workload.base_ids, config=config
    )
    results["SPANN+"] = run_update_simulation(
        spann_plus, workload, k=10, gc_every=5
    )

    print("running DiskANN (this one is slow — graph inserts + merges)...")
    diskann = FreshDiskANNIndex.build(
        workload.base_vectors,
        ids=workload.base_ids,
        config=DiskANNConfig(dim=DIM, merge_threshold=200),
    )
    results["DiskANN"] = run_update_simulation(diskann, workload, k=10)

    rows = []
    for name, series in results.items():
        stats = summarize(series)
        rows.append(
            (
                name,
                stats["mean_recall"],
                stats["mean_p999_ms"],
                stats["max_p999_ms"],
                stats["mean_insert_us"],
                stats["peak_memory_mb"],
            )
        )
    print()
    print(
        format_table(
            [
                "system",
                "mean recall",
                "mean p99.9 ms",
                "max p99.9 ms",
                "insert us",
                "peak mem MB",
            ],
            rows,
            title="one week of 2% daily churn (skewed + shifting)",
        )
    )


if __name__ == "__main__":
    main()
