"""Figure 7, Workload B — SIFT-like (uniform, stationary) churn.

Paper: on the almost uniformly distributed SIFT dataset, SPANN+ with
background GC achieves nearly the same index quality as SPFresh because
posting distributions barely shift — only DiskANN still lags. The check
here is the *convergence* of SPFresh and SPANN+ on uniform data, the
counterpoint to their divergence on Workload A.
"""

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.baselines import build_spann_plus
from repro.bench.harness import run_update_simulation, summarize
from repro.bench.reporting import format_series, format_table
from repro.core.index import SPFreshIndex
from repro.datasets import workload_b


def test_fig7b_sift_uniform(benchmark, scale):
    workload = workload_b(
        n_base=scale.base_vectors,
        days=scale.days,
        daily_rate=scale.daily_rate,
        dim=DIM,
        num_queries=scale.queries,
        seed=3,
    )
    config = spfresh_config()

    def experiment():
        spfresh = SPFreshIndex.build(
            workload.base_vectors, ids=workload.base_ids, config=config
        )
        sp_series = run_update_simulation(spfresh, workload, k=10)
        spann_plus = build_spann_plus(
            workload.base_vectors, ids=workload.base_ids, config=config
        )
        spp_series = run_update_simulation(spann_plus, workload, k=10, gc_every=5)
        return sp_series, spp_series

    sp_series, spp_series = run_once(benchmark, experiment)

    print()
    print(format_series(sp_series, every=max(1, scale.days // 6), title="Fig 7B: SPFresh (SIFT-like)"))
    print()
    print(format_series(spp_series, every=max(1, scale.days // 6), title="Fig 7B: SPANN+ (SIFT-like)"))
    sp, spp = summarize(sp_series), summarize(spp_series)
    print()
    print(
        format_table(
            ["system", "mean recall", "mean p99.9 ms"],
            [
                ("SPFresh", sp["mean_recall"], sp["mean_p999_ms"]),
                ("SPANN+", spp["mean_recall"], spp["mean_p999_ms"]),
            ],
            title="Fig 7B summary (uniform data: the two should converge)",
        )
    )
    # Paper's claim: on uniform data SPANN+ ~= SPFresh.
    assert abs(sp["mean_recall"] - spp["mean_recall"]) < 0.05
    assert sp["mean_p999_ms"] <= spp["mean_p999_ms"] * 1.25
