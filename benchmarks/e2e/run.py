"""End-to-end benchmark of the SPFresh reproduction (see README.md here).

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py                 # every workload, both modes
    python3 benchmarks/e2e/run.py --selfcheck     # same seed twice, compare

Prints every metric by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Units whose metrics come from the modelled device or from exact counts:
# they must repeat bit for bit under one seed. Everything else is host time.
DETERMINISTIC_UNITS = ("count", "ratio", "sim_us", "1/sim_s", "model_MiB")


def declared() -> dict:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def plain(value):
    """A JSON number: numpy scalars become Python ones, counts stay whole."""
    return value if isinstance(value, int) else float(value)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="sizes the op counts")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--selfcheck", action="store_true")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace, bench: dict) -> int:
    """Run one workload in this process and print its result line."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from harness import run_workload
    from specs import SETUP_REPEATS, SPEC_BY_NAME, make_inputs

    spec = SPEC_BY_NAME.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    smoke = args.scale == "smoke"
    seconds = args.seconds or (1.0 if smoke else bench["run_seconds"])
    inputs = make_inputs(spec, args.seed, seconds, base_div=4 if smoke else 1)
    spans_path = None
    if args.trace:
        args.out.mkdir(parents=True, exist_ok=True)
        spans_path = args.out / f"spans-{spec.name}-{args.seed}.jsonl"
    result = run_workload(
        spec,
        inputs,
        trace=bool(args.trace),
        setup_repeats=1 if (smoke or args.trace) else SETUP_REPEATS,
        spans_path=spans_path,
    )
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    values = result[section]
    if set(values) != set(units):
        odd = sorted(set(values) ^ set(units))
        print(f"metrics disagree with BENCHMARK.json: {odd}", file=sys.stderr)
        return 2
    print(f"# {spec.name} seed={args.seed} seconds={seconds:g} trace={args.trace}")
    for name in units:
        print(f"{name:36s} {values[name]:>16.6g} {units[name]}")
    if spans_path is not None:
        print(f"# spans written to {spans_path}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": plain(values[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


def child(args: argparse.Namespace, workload: str, trace: int) -> dict:
    """One workload in a process of its own (peak RSS is per process)."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--trace",
        str(trace),
        "--scale",
        args.scale,
        "--out",
        str(args.out),
    ]
    if args.seconds:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args: argparse.Namespace, bench: dict) -> int:
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = child(args, workload, trace)
            ok = ok and result["correct"]
            print(
                f"# {workload} trace={trace} correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}"
            )
            for name, metric in result["metrics"].items():
                print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


def selfcheck(args: argparse.Namespace, bench: dict) -> int:
    """Two same-seed runs per workload and mode must agree.

    Counts and simulated-time metrics must be identical; host-time
    end-to-end metrics must agree within their declared bound.
    """
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            first, second = child(args, workload, trace), child(args, workload, trace)
            bad += not (first["correct"] and second["correct"])
            for name, metric in first["metrics"].items():
                a, b = metric["value"], second["metrics"][name]["value"]
                spread = abs(a - b) / max(abs(a), abs(b), 1e-12)
                if metric["unit"] in DETERMINISTIC_UNITS:
                    verdict = "same" if a == b else "DIFFERS"
                elif name in bounds:
                    verdict = "ok" if spread <= bounds[name] else "OVER BOUND"
                else:
                    verdict = "host"
                bad += verdict.isupper()
                print(
                    f"{workload:16s} {name:36s} {a:>14.6g} {b:>14.6g} "
                    f"{spread:8.2%} {verdict}"
                )
    print("selfcheck", "FAILED" if bad else "passed")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = declared()
    if args.selfcheck:
        return selfcheck(args, bench)
    if args.workload:
        return run_one(args, bench)
    return run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main())
