"""Append one commit's benchmark results to ``BENCH_HISTORY.jsonl``.

    python3 benchmarks/history.py --commit 08dc286 --tier1-wall-s 327 RESULTS_DIR

``RESULTS_DIR`` holds the final stdout line of ``benchmarks/e2e/run.py``
runs of that commit, one file each, named ``<workload>-<seed>.json`` for
``--trace 0`` runs and ``<workload>-<seed>.trace.json`` for the one
``--trace 1`` run per workload that supplies ``host.calib_ms``. One line
per workload is appended: commit, workload, seeds, pairs (runs of this
commit, each alternated with a run of the commit it is compared with),
median and quartiles of every end-to-end metric, ``host.calib_ms`` and
the tier-1 wall time. ``tests/test_bench_history.py`` checks the file against
``BENCHMARK.json``; nothing here imports the program or the harness.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _values(path: Path) -> dict[str, float]:
    result = json.loads(path.read_text(encoding="utf-8").strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def history_line(commit: str, workload: str, results: Path, tier1_wall_s: float) -> dict:
    runs = {
        int(path.stem.rsplit("-", 1)[1]): _values(path)
        for path in sorted(results.glob(f"{workload}-*.json"))
        if not path.name.endswith(".trace.json")
    }
    if not runs:
        raise SystemExit(f"no {workload}-<seed>.json results under {results}")
    traced = [_values(path) for path in results.glob(f"{workload}-*.trace.json")]
    metrics = {}
    for name in next(iter(runs.values())):
        values = sorted(run[name] for run in runs.values())
        q1, median, q3 = (
            statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1
            else values * 3
        )
        metrics[name] = {"median": median, "q1": q1, "q3": q3}
    return {
        "commit": commit,
        "workload": workload,
        "seeds": sorted(runs),
        "pairs": len(runs),
        "metrics": metrics,
        "host.calib_ms": statistics.median(t["host.calib_ms"] for t in traced),
        "tier1_wall_s": tier1_wall_s,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", type=Path)
    parser.add_argument("--commit", required=True)
    parser.add_argument("--tier1-wall-s", type=float, required=True)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_HISTORY.jsonl")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in (w["name"] for w in bench["workloads"]):
            line = history_line(args.commit, workload, args.results, args.tier1_wall_s)
            out.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    main()
