"""Smoke test of the e2e benchmark driver (run explicitly, not by tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

A ``--scale smoke`` pass of a few seconds per workload checks that every
metric and workload named in BENCHMARK.json is emitted with its unit and
that two same-seed runs give identical counts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT_UNITS = ("count", "ratio", "sim_us", "1/sim_s", "model_MiB")


def run(workload: str, trace: int, tmp_path) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--scale",
            "smoke",
            "--trace",
            str(trace),
            "--out",
            str(tmp_path),
        ],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(workload, trace, tmp_path):
    declared = BENCH["per_layer" if trace else "end_to_end"]
    first, second = run(workload, trace, tmp_path), run(workload, trace, tmp_path)
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    assert set(first["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert NAME.fullmatch(metric["name"])
        got = first["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, f"{metric['name']} must never read 0"
        if metric["unit"] in EXACT_UNITS:
            again = second["metrics"][metric["name"]]["value"]
            assert got["value"] == again, f"{metric['name']} is not repeatable"
    if trace:
        assert (tmp_path / f"spans-{workload}-3.jsonl").stat().st_size > 0


def test_workload_and_metric_names_are_unique_and_well_formed():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
