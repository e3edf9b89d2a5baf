"""Command-line driver: run reproduction experiments without pytest.

Usage::

    python -m repro --help                   # every subcommand, one parser
    python -m repro overview                 # build + quick stats
    python -m repro simulate --days 10       # Figure-7-style day series
    python -m repro compare --days 7         # SPFresh vs SPANN+ vs DiskANN
    python -m repro sweep-nprobe             # recall/latency trade-off
    python -m repro cluster --storm 500      # centroid-routed sharding
    python -m repro profile --scale quick    # wall-clock stage profile
    python -m repro serve-bench --report f   # open-loop serving bench
    python -m repro perf --quick             # BENCH_*.json perf harness

All subcommands hang off one argparse tree. ``--seed`` is shared by every
subcommand; the benchmark-shaped ones (``perf``, ``profile``,
``serve-bench``) additionally share ``--scale`` (the
``repro.bench.scales.PERF_SCALES`` presets) and ``--report`` (write the
subcommand's tables/summary to a file as well as stdout).

Every subcommand prints the same ASCII tables the benches emit, so the
CLI is the interactive way to poke at the system; `benchmarks/` remains
the reproducible record.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.api import QueryRequest
from repro.bench.scales import PERF_SCALES
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.util.errors import ConfigError


def _add_common(parser: argparse.ArgumentParser, *, scale_defaults: bool = False) -> None:
    """Dataset-shape flags. With ``scale_defaults`` the sizes default to
    ``None`` and are filled from the subcommand's ``--scale`` preset."""
    base, dim, queries = (None, None, None) if scale_defaults else (4000, 32, 50)
    parser.add_argument("--base", type=int, default=base, help="base vectors")
    parser.add_argument("--dim", type=int, default=dim, help="dimensionality")
    parser.add_argument("--queries", type=int, default=queries, help="query count")
    parser.add_argument(
        "--skewed", action="store_true", help="SPACEV-like skew + drift"
    )


def _resolve_scale(args) -> None:
    """Fill dataset-shape flags left at ``None`` from the --scale preset."""
    scale = PERF_SCALES[args.scale]
    if args.base is None:
        args.base = scale.base_vectors
    if args.dim is None:
        args.dim = scale.dim
    if args.queries is None:
        args.queries = min(scale.queries, 400)


def _dataset(args, pool: int = 0):
    from repro.datasets import make_sift_like, make_spacev_like

    maker = make_spacev_like if args.skewed else make_sift_like
    return maker(args.base, pool, dim=args.dim, seed=args.seed)


def cmd_overview(args) -> int:
    """Build an index over synthetic data and print its shape/stats."""
    dataset = _dataset(args)
    index = SPFreshIndex.build(
        dataset.base, config=SPFreshConfig(dim=args.dim, seed=args.seed)
    )
    sizes = index.posting_sizes()
    print(f"vectors:   {index.live_vector_count}")
    print(f"postings:  {index.num_postings} "
          f"(sizes min/mean/max {sizes.min()}/{sizes.mean():.0f}/{sizes.max()})")
    print(f"DRAM:      {index.memory_bytes() / 1024:.1f} KiB")
    result = index.query(
        QueryRequest.single(dataset.base[0] + 0.01, k=10)
    ).result
    print(f"probe:     {result.latency_us:.0f} us simulated "
          f"({result.postings_probed} postings, "
          f"{result.entries_scanned} entries)")
    histogram = index.replica_histogram()
    total = sum(histogram.values())
    mean_r = sum(k * v for k, v in histogram.items()) / total
    print(f"replicas:  mean {mean_r:.2f}, "
          f"{sum(v for k, v in histogram.items() if k > 1) / total:.0%} "
          f"of vectors have >1 copy")
    return 0


def cmd_simulate(args) -> int:
    """Run a Figure-7-style multi-day churn simulation on SPFresh."""
    from repro.bench.harness import SPFreshAdapter, run_update_simulation, summarize
    from repro.bench.reporting import format_series
    from repro.datasets import workload_a, workload_b

    maker = workload_a if args.skewed else workload_b
    workload = maker(
        n_base=args.base,
        days=args.days,
        daily_rate=args.rate,
        dim=args.dim,
        num_queries=args.queries,
        seed=args.seed,
    )
    index = SPFreshIndex.build(
        workload.base_vectors,
        ids=workload.base_ids,
        config=SPFreshConfig(dim=args.dim, seed=args.seed),
    )
    series = run_update_simulation(
        SPFreshAdapter(index), workload, k=10, progress=True
    )
    print()
    print(format_series(series, every=max(1, args.days // 10)))
    stats = summarize(series)
    print(f"\nmean recall {stats['mean_recall']:.3f}  "
          f"mean P99.9 {stats['mean_p999_ms']:.2f} ms  "
          f"peak DRAM {stats['peak_memory_mb']:.2f} MB")
    return 0


def cmd_compare(args) -> int:
    """Run SPFresh vs SPANN+ (and optionally DiskANN) on one workload."""
    from repro.baselines import (
        DiskANNConfig,
        FreshDiskANNIndex,
        build_spann_plus,
    )
    from repro.bench.harness import (
        DiskANNAdapter,
        SPFreshAdapter,
        run_update_simulation,
        summarize,
    )
    from repro.bench.reporting import format_table
    from repro.datasets import workload_a, workload_b

    maker = workload_a if args.skewed else workload_b
    workload = maker(
        n_base=args.base,
        days=args.days,
        daily_rate=args.rate,
        dim=args.dim,
        num_queries=args.queries,
        seed=args.seed,
    )
    config = SPFreshConfig(dim=args.dim, seed=args.seed)
    adapters = [
        SPFreshAdapter(
            SPFreshIndex.build(
                workload.base_vectors, ids=workload.base_ids, config=config
            )
        ),
        SPFreshAdapter(
            build_spann_plus(
                workload.base_vectors, ids=workload.base_ids, config=config
            ),
            name="SPANN+",
            gc_every=5,
        ),
    ]
    if not args.skip_diskann:
        adapters.append(
            DiskANNAdapter(
                FreshDiskANNIndex.build(
                    workload.base_vectors,
                    ids=workload.base_ids,
                    config=DiskANNConfig(
                        dim=args.dim,
                        merge_threshold=max(
                            60, int(args.base * args.rate * 3)
                        ),
                    ),
                )
            )
        )
    rows = []
    for adapter in adapters:
        print(f"running {adapter.name}...")
        stats = summarize(run_update_simulation(adapter, workload, k=10))
        rows.append(
            (
                adapter.name,
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
            ["system", "recall", "p99.9 ms", "max p99.9", "insert us", "mem MB"],
            rows,
            title=f"{args.days} days of {args.rate:.0%} daily churn",
        )
    )
    return 0


def cmd_perf(args) -> int:
    """Run the deterministic perf-regression harness (BENCH_*.json)."""
    from repro.bench.perf import run_cli as perf_run

    return perf_run(args, args._parser)


def cmd_profile(args) -> int:
    """Build an index, drive a mixed workload, print the wall-clock profile.

    Exercises the whole engine — batched + single search, inserts, deletes
    and the rebuild jobs they trigger — with the profiler enabled, then
    renders the per-stage table (``--json`` for machine-readable output).
    """
    import json

    _resolve_scale(args)
    dataset = _dataset(args)
    rng = np.random.default_rng(args.seed)
    index = SPFreshIndex.build(
        dataset.base,
        config=SPFreshConfig(dim=args.dim, seed=args.seed, enable_profiling=True),
    )
    queries = (
        dataset.base[rng.integers(0, args.base, size=args.queries)]
        + rng.normal(scale=0.05, size=(args.queries, args.dim)).astype(np.float32)
    ).astype(np.float32)
    for start in range(0, len(queries), 32):
        index.query(QueryRequest(vectors=queries[start : start + 32], k=10))
    for query in queries:
        index.query(QueryRequest.single(query, k=10))
    churn = max(1, args.base // 20)
    new_vectors = dataset.base[rng.integers(0, args.base, size=churn)] + 0.01
    for i, vector in enumerate(new_vectors):
        index.insert(args.base + i, vector)
    for vid in rng.choice(args.base, size=churn // 2, replace=False):
        index.delete(int(vid))
    index.drain()
    if args.json:
        output = json.dumps(index.profile_snapshot(), indent=2)
    else:
        output = index.profile_report(title="wall-clock profile (mixed workload)")
    print(output)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(output + "\n")
        print(f"\nwrote {args.report}")
    return 0


def cmd_serve_bench(args) -> int:
    """Drive the open-loop serving front-end and print/report its metrics.

    Builds the requested engine backend (``--backend single`` is a bare
    searcher, ``sharded``/``cluster`` the distributed facades), generates
    a seeded arrival trace (pattern, rate, hot-key skew, tenants all
    flags), then serves it twice: through the dynamic batcher at
    ``--workers``/``--fairness`` and — unless ``--no-baseline`` —
    unbatched (``max_batch=1``), printing the side-by-side table the CI
    lane uploads as ``SERVING.md``. With ``--workers > 1`` a
    goodput-vs-workers table sweeps the pool size from 1 to the flag.
    """
    from repro.bench.reporting import format_markdown_table
    from repro.datasets import make_arrival_trace
    from repro.serving import ServingFrontend

    _resolve_scale(args)
    dataset = _dataset(args)
    config = SPFreshConfig(
        dim=args.dim,
        seed=args.seed,
        serve_max_batch=args.max_batch,
        serve_max_wait_us=args.max_wait_us,
        serve_slo_us=args.slo_us,
        serve_queue_capacity=args.queue_capacity,
        serve_num_workers=args.workers,
        serve_fairness=args.fairness,
        serve_tenant_quota_fraction=args.tenant_quota,
    ).validate()
    engine, closer = _serve_engine(args, dataset, config)
    try:
        rng = np.random.default_rng(args.seed + 1)
        pool = (
            dataset.base[rng.integers(0, args.base, size=max(args.queries, 1))]
            + rng.normal(scale=0.05, size=(max(args.queries, 1), args.dim))
        ).astype(np.float32)
        trace = make_arrival_trace(
            pool,
            n_requests=args.requests,
            mean_rate_qps=args.rate_qps,
            pattern=args.pattern,
            hot_key_skew=args.hot_key_skew,
            tenant_weights=args.tenants if args.tenants > 1 else None,
            seed=args.seed + 5,
        )
        runs = [
            (
                "batched",
                ServingFrontend.from_config(engine, config, k=10),
            )
        ]
        if not args.no_baseline:
            runs.append(
                (
                    "unbatched",
                    ServingFrontend.from_config(
                        engine, config, k=10, max_batch=1, max_wait_us=0.0
                    ),
                )
            )
        headline = (
            "goodput_qps",
            "answered_qps",
            "e2e_latency_us_p50",
            "e2e_latency_us_p99",
            "e2e_latency_us_p99.9",
            "slo_violation_rate",
            "shed_rate",
            "batch_size_mean",
            "queue_wait_us_mean",
            "assembly_wait_us_mean",
            "engine_us_mean",
        )
        rows = []
        tenant_rows = []
        for label, frontend in runs:
            report = frontend.run(trace)
            metrics = report.metrics()
            rows.append(
                [label, str(frontend.num_workers), frontend.fairness]
                + [f"{metrics[k]:.3f}" for k in headline]
            )
            for tenant, tm in report.per_tenant_metrics().items():
                tenant_rows.append(
                    (
                        label,
                        tenant,
                        int(tm["offered"]),
                        f"{tm['shed_rate']:.3f}",
                        f"{tm['e2e_latency_us_p99']:.0f}",
                    )
                )
        table = format_markdown_table(
            ["mode", "workers", "fairness", *headline],
            rows,
            title=(
                f"serving: {trace.name} — {len(trace)} requests, "
                f"{trace.offered_qps:.0f} offered qps, SLO "
                f"{config.serve_slo_us:g} us, backend {args.backend}"
            ),
        )
        tenant_table = format_markdown_table(
            ["mode", "tenant", "offered", "shed_rate", "e2e_p99_us"],
            tenant_rows,
            title="per-tenant breakdown",
        )
        output = table + "\n\n" + tenant_table
        if args.workers > 1:
            sweep_rows = []
            base_goodput = None
            for workers in _worker_sweep(args.workers):
                sweep = ServingFrontend.from_config(
                    engine, config, k=10, num_workers=workers
                ).run(trace)
                sm = sweep.metrics()
                if base_goodput is None:
                    base_goodput = sm["goodput_qps"] or 1.0
                sweep_rows.append(
                    (
                        workers,
                        f"{sm['goodput_qps']:.1f}",
                        f"{sm['goodput_qps'] / base_goodput:.2f}x",
                        f"{sm['shed_rate']:.3f}",
                        f"{sm['e2e_latency_us_p99']:.0f}",
                    )
                )
            output += "\n\n" + format_markdown_table(
                ["workers", "goodput_qps", "speedup", "shed_rate", "e2e_p99_us"],
                sweep_rows,
                title="goodput vs workers (simulated K-worker pool)",
            )
        print(output)
        if args.report:
            with open(args.report, "w") as fh:
                fh.write(output + "\n")
            print(f"\nwrote {args.report}")
    finally:
        closer()
    return 0


def _worker_sweep(max_workers: int) -> list[int]:
    """1, 2, 4, ... doubling up to (and always including) ``max_workers``."""
    ks = [1]
    while ks[-1] * 2 < max_workers:
        ks.append(ks[-1] * 2)
    ks.append(max_workers)
    return ks


def _serve_engine(args, dataset, config):
    """Build the serve-bench engine for ``--backend``; returns (engine, close)."""
    if args.backend == "single":
        index = SPFreshIndex.build(dataset.base, config=config)
        return index.searcher, lambda: None
    from repro.distributed import ClusterSPFresh, HashPlacement

    cluster = ClusterSPFresh.build(
        dataset.base,
        num_shards=args.shards,
        config=config,
        placement=(
            HashPlacement(args.shards) if args.backend == "sharded" else None
        ),
    )
    return cluster, cluster.close


def cmd_cluster(args) -> int:
    """Build a centroid-routed cluster and print routing/split/replica stats.

    Compares routed search (``cluster_nprobe`` shards probed) against the
    broadcast oracle on the same queries, optionally drives a hot-region
    insert storm through the shard-split path, and audits the cross-shard
    conservation invariants (docs/distributed.md).
    """
    import time

    from repro.bench.reporting import format_table
    from repro.datasets import exact_knn
    from repro.distributed import ClusterSPFresh
    from repro.metrics import recall_at_k
    from repro.util.workers import fork_available

    _resolve_scale(args)
    dataset = _dataset(args)
    config = SPFreshConfig(
        dim=args.dim,
        seed=args.seed,
        cluster_nprobe=args.cluster_nprobe,
        cluster_replication_factor=args.replicas,
        cluster_split_threshold=args.split_threshold,
    ).validate()
    rng = np.random.default_rng(args.seed + 1)
    queries = (
        dataset.base[rng.integers(0, args.base, size=args.queries)]
        + rng.normal(scale=0.05, size=(args.queries, args.dim))
    ).astype(np.float32)
    truth = exact_knn(dataset.base, np.arange(args.base), queries, 10)
    with ClusterSPFresh.build(
        dataset.base, num_shards=args.shards, config=config
    ) as cluster:
        fork = args.executor == "process"
        if fork and not fork_available():
            print("process executor unavailable (no fork); using threads")
            fork = False
        request = QueryRequest(vectors=queries, k=10)
        # Forked workers answer from the cluster as built; the pool is
        # closed before the storm below changes it.
        with cluster.worker_pool(fork=fork) as pool:
            start = time.perf_counter()
            routed = cluster.query(request, pool=pool)
            wall = time.perf_counter() - start
            probed = cluster.shards_probed_fraction()
            broadcast = cluster.query(request, broadcast=True, pool=pool)
        routed_recall = recall_at_k([r.ids for r in routed], truth, 10)
        oracle_recall = recall_at_k([r.ids for r in broadcast], truth, 10)
        rows = [
            (
                "routed",
                f"{routed_recall:.4f}",
                f"{probed:.2f}",
                f"{np.mean([r.latency_us for r in routed]):.1f}",
            ),
            (
                "broadcast",
                f"{oracle_recall:.4f}",
                "1.00",
                f"{np.mean([r.latency_us for r in broadcast]):.1f}",
            ),
        ]
        print(
            format_table(
                ["path", "recall10@10", "shards probed", "mean sim us"],
                rows,
                title=(
                    f"cluster: {args.shards} shards x {args.replicas} "
                    f"replicas, cluster_nprobe={config.cluster_nprobe}"
                ),
            )
        )
        print(
            f"\n{args.executor} executor: {len(pool)} workers answered the "
            f"routed fan-out in {wall * 1e3:.1f} ms wall (informational; "
            f"simulated metrics above are the gated ones)"
        )
        if args.storm:
            hot = dataset.cluster_centers[0]
            for i in range(args.storm):
                vector = (
                    hot + rng.normal(scale=0.2, size=args.dim)
                ).astype(np.float32)
                cluster.insert(7_000_000 + i, vector)
            splits = cluster.maybe_split()
            cluster.drain()
            print(
                f"\nstorm: {args.storm} hot inserts -> {splits} shard "
                f"splits, {cluster.stats.migrated_vectors} vectors "
                f"migrated, {cluster.num_shards} shards now "
                f"(sizes {cluster.shard_sizes()})"
            )
        audit = cluster.check_invariants()
        status = "OK" if audit.ok else "; ".join(audit.failures)
        print(
            f"invariants: {audit.conservation_violations} violations "
            f"({status}) over {audit.cluster_live_vectors} live vectors"
        )
        return 0 if audit.ok else 1


def cmd_sweep_nprobe(args) -> int:
    """Trace the recall/latency trade-off across nprobe settings."""
    from repro.bench.reporting import format_table
    from repro.datasets import exact_knn
    from repro.metrics import recall_curve

    dataset = _dataset(args)
    index = SPFreshIndex.build(
        dataset.base, config=SPFreshConfig(dim=args.dim, seed=args.seed)
    )
    queries = dataset.base[: args.queries] + 0.01
    truth = exact_knn(dataset.base, np.arange(args.base), queries, 10)

    def search_fn(query, k, nprobe):
        return index.query(QueryRequest.single(query, k=k, nprobe=nprobe)).result

    curve = recall_curve(search_fn, queries, truth, 10, [1, 2, 4, 8, 16, 32])
    print(
        format_table(
            ["nprobe", "recall10@10", "mean latency us"],
            curve,
            title="recall/latency trade-off",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree for `python -m repro`.

    One shared parent supplies ``--seed`` everywhere; a second parent
    supplies ``--scale``/``--report`` to the benchmark-shaped subcommands
    (``perf``, ``profile``, ``serve-bench``) so the flags mean the same
    thing on each.
    """
    from repro.bench.perf import add_perf_arguments

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    scaled = argparse.ArgumentParser(add_help=False)
    scaled.add_argument(
        "--scale", choices=sorted(PERF_SCALES), default="quick",
        help="workload scale preset (see repro.bench.scales.PERF_SCALES)",
    )
    scaled.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the subcommand's tables/summary to this file",
    )

    parser = argparse.ArgumentParser(
        prog="repro", description="SPFresh reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    overview = sub.add_parser(
        "overview", parents=[seeded], help="build an index, print stats"
    )
    _add_common(overview)
    overview.set_defaults(func=cmd_overview)

    simulate = sub.add_parser(
        "simulate", parents=[seeded], help="multi-day churn simulation"
    )
    _add_common(simulate)
    simulate.add_argument("--days", type=int, default=10)
    simulate.add_argument("--rate", type=float, default=0.01)
    simulate.set_defaults(func=cmd_simulate)

    compare = sub.add_parser(
        "compare", parents=[seeded], help="SPFresh vs baselines"
    )
    _add_common(compare)
    compare.add_argument("--days", type=int, default=7)
    compare.add_argument("--rate", type=float, default=0.02)
    compare.add_argument("--skip-diskann", action="store_true")
    compare.set_defaults(func=cmd_compare)

    sweep = sub.add_parser(
        "sweep-nprobe", parents=[seeded], help="recall/latency curve"
    )
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep_nprobe)

    serve = sub.add_parser(
        "serve-bench",
        parents=[seeded, scaled],
        help="open-loop serving bench: admission + dynamic batching",
    )
    _add_common(serve, scale_defaults=True)
    serve.add_argument("--requests", type=int, default=6000)
    serve.add_argument("--rate-qps", type=float, default=6000.0)
    serve.add_argument(
        "--pattern",
        choices=("poisson", "bursty", "diurnal"),
        default="bursty",
    )
    serve.add_argument("--hot-key-skew", type=float, default=0.8)
    serve.add_argument("--tenants", type=int, default=4)
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--max-wait-us", type=float, default=1500.0)
    serve.add_argument("--slo-us", type=float, default=15000.0)
    serve.add_argument("--queue-capacity", type=int, default=256)
    serve.add_argument(
        "--workers", type=int, default=1,
        help="simulated engine-pool size; >1 adds a goodput-vs-workers table",
    )
    serve.add_argument(
        "--fairness", choices=("fifo", "dwrr"), default="fifo",
        help="batch-seat scheduling across tenants",
    )
    serve.add_argument(
        "--tenant-quota", type=float, default=None,
        help="max fraction of the queue one tenant may occupy (0, 1]",
    )
    serve.add_argument(
        "--backend", choices=("single", "sharded", "cluster"), default="single",
        help="engine under the frontend: bare searcher or a distributed facade",
    )
    serve.add_argument(
        "--shards", type=int, default=4,
        help="shard count for the sharded/cluster backends",
    )
    serve.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the unbatched comparison run",
    )
    serve.set_defaults(func=cmd_serve_bench)

    cluster = sub.add_parser(
        "cluster",
        parents=[seeded, scaled],
        help="centroid-routed sharding: routing vs broadcast + audit",
    )
    _add_common(cluster, scale_defaults=True)
    cluster.add_argument("--shards", type=int, default=4)
    cluster.add_argument(
        "--cluster-nprobe", type=int, default=2,
        help="shards probed per routed query",
    )
    cluster.add_argument("--replicas", type=int, default=1)
    cluster.add_argument(
        "--split-threshold", type=int, default=None,
        help="live vectors per shard before maybe_split() carves it",
    )
    cluster.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
    )
    cluster.add_argument(
        "--storm", type=int, default=0,
        help="hot-region inserts to drive before the split/audit phase",
    )
    cluster.set_defaults(func=cmd_cluster)

    profile = sub.add_parser(
        "profile",
        parents=[seeded, scaled],
        help="wall-clock stage profile of a mixed workload",
    )
    _add_common(profile, scale_defaults=True)
    profile.add_argument(
        "--json", action="store_true", help="emit the snapshot as JSON"
    )
    profile.set_defaults(func=cmd_profile)

    perf = sub.add_parser(
        "perf",
        parents=[seeded, scaled],
        help="perf-regression harness (BENCH_*.json)",
    )
    add_perf_arguments(perf)
    perf.set_defaults(func=cmd_perf, _parser=perf)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code. A bad setting is
    reported the way argparse reports a bad flag: one line on stderr,
    exit status 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
