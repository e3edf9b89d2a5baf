"""Command-line driver: run reproduction experiments without pytest.

Usage::

    python -m repro --help                   # every subcommand, one parser
    python -m repro overview                 # build + quick stats
    python -m repro simulate --days 10       # Figure-7-style day series
    python -m repro compare --days 7         # SPFresh vs SPANN+ vs DiskANN
    python -m repro sweep-nprobe             # recall/latency trade-off
    python -m repro perf --out bench-out     # BENCH_*.json perf harness

All subcommands hang off one argparse tree and share ``--seed``; the
four interactive ones share the dataset-shape flags (``--base``,
``--dim``, ``--queries``, ``--skewed``). Serving, cluster and profile
measurements live in one place each: the ``perf`` scenarios and
``benchmarks/e2e`` (docs/benchmarking.md).

Every subcommand prints the same ASCII tables the benches emit, so the
CLI is the interactive way to poke at the system; `benchmarks/` remains
the reproducible record.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.api import QueryRequest
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.util.errors import ConfigError


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    return _int_at_least(text, 1, "positive")


def _non_negative_int(text: str) -> int:
    """argparse type: an integer of at least 0 (numpy refuses negative seeds)."""
    return _int_at_least(text, 0, "non-negative")


def _add_common(parser: argparse.ArgumentParser) -> None:
    """Dataset-shape flags."""
    parser.add_argument("--base", type=_positive_int, default=4000, help="base vectors")
    parser.add_argument("--dim", type=_positive_int, default=32, help="dimensionality")
    parser.add_argument("--queries", type=_positive_int, default=50, help="query count")
    parser.add_argument(
        "--skewed", action="store_true", help="SPACEV-like skew + drift"
    )


def _dataset(args):
    from repro.datasets import make_sift_like, make_spacev_like

    maker = make_spacev_like if args.skewed else make_sift_like
    return maker(args.base, dim=args.dim, seed=args.seed)


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
    from repro.bench.harness import run_update_simulation, summarize
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
    series = run_update_simulation(index, workload, k=10, progress="SPFresh")
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
    from repro.bench.harness import run_update_simulation, summarize
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

    def build(make, config):
        return make(workload.base_vectors, ids=workload.base_ids, config=config)

    # (name, engine, SPANN+'s periodic GC: every that-many days)
    systems = [
        ("SPFresh", build(SPFreshIndex.build, config), None),
        ("SPANN+", build(build_spann_plus, config), 5),
    ]
    if not args.skip_diskann:
        merge_threshold = max(60, int(args.base * args.rate * 3))
        diskann = DiskANNConfig(dim=args.dim, merge_threshold=merge_threshold)
        systems.append(("DiskANN", build(FreshDiskANNIndex.build, diskann), None))
    rows = []
    for name, engine, gc_every in systems:
        print(f"running {name}...")
        stats = summarize(
            run_update_simulation(engine, workload, k=10, gc_every=gc_every)
        )
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
    curve = recall_curve(index, queries, truth, 10, [1, 2, 4, 8, 16, 32])
    print(
        format_table(
            ["nprobe", "recall10@10", "mean latency us"],
            curve,
            title="recall/latency trade-off",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree for `python -m repro`; one shared parent
    supplies ``--seed`` everywhere."""
    from repro.bench.perf import add_perf_arguments

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_non_negative_int, default=0)

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
    simulate.add_argument("--days", type=_positive_int, default=10)
    simulate.add_argument("--rate", type=float, default=0.01)
    simulate.set_defaults(func=cmd_simulate)

    compare = sub.add_parser(
        "compare", parents=[seeded], help="SPFresh vs baselines"
    )
    _add_common(compare)
    compare.add_argument("--days", type=_positive_int, default=7)
    compare.add_argument("--rate", type=float, default=0.02)
    compare.add_argument("--skip-diskann", action="store_true")
    compare.set_defaults(func=cmd_compare)

    sweep = sub.add_parser(
        "sweep-nprobe", parents=[seeded], help="recall/latency curve"
    )
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep_nprobe)

    perf = sub.add_parser(
        "perf", parents=[seeded], help="perf-regression harness (BENCH_*.json)"
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
