"""Streaming-update scenario: a recommendation catalog that shifts daily.

This is the workload the paper's introduction motivates: a service (think
product or video recommendations) whose embedding catalog churns by ~1%
every day, with *new* items drawn from a shifted distribution (trends
move). The script runs the churn for a couple of simulated weeks and
prints the stability metrics Figure 7 plots: recall, tail latency, and
LIRE's background activity.

Run:  python examples/streaming_updates.py
"""


from repro import SPFreshConfig, SPFreshIndex
from repro.bench.harness import run_update_simulation, summarize
from repro.bench.reporting import format_series
from repro.datasets import workload_a

DAYS = 14


def main() -> None:
    workload = workload_a(
        n_base=6000, days=DAYS, daily_rate=0.02, dim=32, num_queries=60
    )
    index = SPFreshIndex.build(
        workload.base_vectors,
        ids=workload.base_ids,
        config=SPFreshConfig(dim=32),
    )
    print(f"serving a {index.live_vector_count}-item catalog "
          f"({index.num_postings} postings); running {DAYS} days of churn...\n")

    series = run_update_simulation(index, workload, k=10, progress="SPFresh")

    print()
    print(format_series(series, every=2, title="daily stability"))
    stats = summarize(series)
    print(f"\nmean recall {stats['mean_recall']:.3f}, "
          f"mean P99.9 {stats['mean_p999_ms']:.2f} ms, "
          f"peak DRAM {stats['peak_memory_mb']:.2f} MB")

    snap = index.stats.snapshot()
    print(f"LIRE work over {DAYS} days: {snap.splits} splits, "
          f"{snap.merges} merges, {snap.reassign_executed} reassigns — "
          f"no global rebuild ever ran.")


if __name__ == "__main__":
    main()
