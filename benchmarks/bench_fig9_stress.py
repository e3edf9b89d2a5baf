"""Figure 9 — Billion-scale stress test (scaled): uniform and skew datasets.

Paper: at 1B vectors with 1% daily churn, SPFresh saturates device IOPS
with stable P99.9 latency, accuracy above 0.862 (uniform) / 0.807 (skew)
probing the nearest 64 postings, and flat memory/CPU. At reproduction
scale we run the largest local workload (Workload C) on both regimes and
check stability: flat P99.9, flat accuracy above a floor, flat memory.
"""

import numpy as np

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.bench.harness import run_update_simulation
from repro.bench.reporting import format_series
from repro.core.index import SPFreshIndex
from repro.datasets import workload_c


def run_stress(workload, nprobe):
    config = spfresh_config()
    index = SPFreshIndex.build(
        workload.base_vectors, ids=workload.base_ids, config=config
    )
    return run_update_simulation(index, workload, k=10, nprobe=nprobe)


def test_fig9_stress(benchmark, scale):
    uniform = workload_c(
        n_base=scale.stress_base, days=scale.stress_days, dim=DIM,
        num_queries=scale.queries, seed=9, skewed=False,
    )
    skew = workload_c(
        n_base=scale.stress_base, days=scale.stress_days, dim=DIM,
        num_queries=scale.queries, seed=9, skewed=True,
    )
    # Paper probes the nearest 64 of ~0.1B postings; proportionally our
    # indexes have ~hundreds of postings, so a mid-size nprobe matches.
    nprobe = 16

    def experiment():
        return run_stress(uniform, nprobe), run_stress(skew, nprobe)

    uniform_series, skew_series = run_once(benchmark, experiment)

    print()
    fields = (
        "day", "recall", "search_p999_us", "insert_wall_qps",
        "search_wall_qps", "device_iops", "memory_mb",
    )
    print(format_series(uniform_series, fields=fields, title="Figure 9: uniform"))
    print()
    print(format_series(skew_series, fields=fields, title="Figure 9: skew"))

    for name, series, floor in (
        ("uniform", uniform_series, 0.85),
        ("skew", skew_series, 0.78),
    ):
        recalls = np.array([d.recall for d in series])
        p999 = np.array([d.search_p999_us for d in series])
        memory = np.array([d.memory_mb for d in series])
        assert recalls.min() > floor, f"{name}: recall dipped to {recalls.min():.3f}"
        # Stability: no runaway trends across the run.
        assert p999.max() <= max(p999.mean() * 2.5, p999.mean() + 2000)
        assert memory[-1] <= memory[0] * 1.5 + 1.0
