"""``BENCH_HISTORY.jsonl``: the committed benchmark trajectory stays readable.

One JSON object per line and per (commit, workload), produced from the
final JSON line of ``benchmarks/e2e/run.py`` (see docs/benchmarking.md).
Metric names are declared in ``BENCHMARK.json`` and nowhere else, so a
line that drifts from the declaration is a broken trajectory.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCH["workloads"]}
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}


def _lines():
    text = (ROOT / "BENCH_HISTORY.jsonl").read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.strip()]


def test_history_exists_and_every_line_parses():
    lines = _lines()
    assert lines, "BENCH_HISTORY.jsonl is empty"
    for number, line in enumerate(lines, 1):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:  # pragma: no cover - message only
            pytest.fail(f"line {number} is not JSON: {exc}")
        assert isinstance(entry, dict), f"line {number} is not an object"


def test_every_line_names_a_declared_workload_and_its_metrics():
    for number, line in enumerate(_lines(), 1):
        entry = json.loads(line)
        where = f"line {number} ({entry.get('commit')}, {entry.get('workload')})"
        assert isinstance(entry["commit"], str) and entry["commit"], where
        assert entry["workload"] in WORKLOADS, where
        assert entry["seeds"] and all(isinstance(s, int) for s in entry["seeds"]), where
        assert entry["pairs"] >= 1, where
        assert set(entry["metrics"]) == END_TO_END, where
        for name, stats in entry["metrics"].items():
            assert set(stats) == {"median", "q1", "q3"}, f"{where}: {name}"
            assert stats["q1"] <= stats["median"] <= stats["q3"], f"{where}: {name}"
        assert entry["host.calib_ms"] > 0, where
        assert entry["tier1_wall_s"] > 0, where


def test_every_commit_covers_every_workload():
    seen: dict[str, set[str]] = {}
    for line in _lines():
        entry = json.loads(line)
        seen.setdefault(entry["commit"], set()).add(entry["workload"])
    for commit, workloads in seen.items():
        assert workloads == WORKLOADS, f"{commit} lacks {sorted(WORKLOADS - workloads)}"
