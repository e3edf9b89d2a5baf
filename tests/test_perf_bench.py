"""Perf-regression harness tests: schema, determinism, compare, claims.

The CI perf lane gates on the deterministic sections of ``BENCH_*.json``;
these tests pin down the properties that gate relies on: every emitted
file round-trips through the stable schema, two runs under the same seed
produce byte-identical deterministic sections, ``--compare`` renders the
right verdict for within-tolerance, beyond-tolerance, and new/missing
metrics, and every run checks ``CLAIMS`` in absolute terms.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.perf import (
    CLAIMS,
    FILE_PREFIX,
    SCENARIOS,
    SCHEMA_VERSION,
    ScenarioResult,
    check_claims,
    compare_dirs,
    compare_documents,
    load_documents,
    run_markdown_summary,
    run_scenarios,
    write_results,
)
from repro.bench.scales import PERF_SCALES
from repro.cli import main as cli_main


def main(argv: list[str]) -> int:
    """``python -m repro perf ARGV``."""
    return cli_main(["perf", *argv])


@pytest.fixture(scope="module")
def tiny_results():
    return run_scenarios(PERF_SCALES["tiny"], seed=0)


@pytest.fixture(scope="module")
def tiny_docs(tiny_results):
    return {r.scenario: r.to_document() for r in tiny_results}


class TestSchema:
    def test_all_scenarios_emit_files(self, tiny_results, tmp_path):
        paths = write_results(tiny_results, tmp_path)
        assert len(paths) == len(SCENARIOS) >= 4
        for path in paths:
            assert path.name.startswith(FILE_PREFIX)
            assert path.name.endswith(".json")

    def test_document_roundtrip(self, tiny_results, tmp_path):
        write_results(tiny_results, tmp_path)
        docs = load_documents(tmp_path)
        assert set(docs) == set(SCENARIOS)
        for result in tiny_results:
            assert docs[result.scenario] == result.to_document()

    def test_schema_keys_and_gating_policy(self, tiny_docs):
        for scenario, doc in tiny_docs.items():
            assert set(doc) == {
                "schema_version",
                "generated_by",
                "scenario",
                "config",
                "deterministic",
                "directions",
            }
            assert doc["schema_version"] == SCHEMA_VERSION == 2
            assert doc["scenario"] == scenario
            assert doc["deterministic"], scenario
            assert set(doc["directions"]) == set(doc["deterministic"])
            assert set(doc["directions"].values()) <= {"lower", "higher"}
            assert doc["config"]["seed"] == 0

    def test_percentile_and_io_metrics_present(self, tiny_docs):
        # Acceptance criterion: percentile latency + IOStats amplification.
        for scenario in ("search", "update", "cache"):
            keys = tiny_docs[scenario]["deterministic"]
            assert any(k.endswith("_p99.9") for k in keys), scenario
            assert any(k.endswith("_p50") for k in keys), scenario
        search = tiny_docs["search"]["deterministic"]
        assert search["single_read_amplification"] > 0
        assert search["single_io_block_reads"] > 0
        update = tiny_docs["update"]["deterministic"]
        assert update["write_amplification"] > 0

    def test_recall_gated_higher_is_better(self, tiny_docs):
        doc = tiny_docs["search"]
        assert doc["directions"]["single_recall_at_k"] == "higher"
        assert doc["directions"]["single_latency_us_p50"] == "lower"
        assert doc["deterministic"]["single_recall_at_k"] > 0.8

    def test_cache_scenario_uses_package_export(self, tiny_docs):
        # The cached-vs-uncached ablation rides on the public package API.
        from repro.storage import CachedBlockController  # noqa: F401

        cache = tiny_docs["cache"]["deterministic"]
        assert cache["cache_hit_rate"] > 0.5
        assert cache["cached_block_reads"] < cache["uncached_block_reads"]
        assert (
            cache["cached_latency_us_p50"] < cache["uncached_latency_us_p50"]
        )

    def test_recovery_replays_every_logged_update(self, tiny_docs):
        det = tiny_docs["recovery"]["deterministic"]
        assert det["wal_records_replayed"] + det["wal_records_skipped"] == (
            PERF_SCALES["tiny"].recovery_updates
        )
        assert det["wal_records_quarantined"] == 0
        assert det["live_vector_drift"] == 0

    def test_rebalance_exercises_lire_paths(self, tiny_docs):
        det = tiny_docs["rebalance"]["deterministic"]
        assert det["splits"] > 0
        assert det["merges"] > 0
        assert det["reassign_executed"] > 0


class TestDeterminism:
    def test_same_seed_byte_identical_deterministic_sections(
        self, tiny_results
    ):
        rerun = run_scenarios(PERF_SCALES["tiny"], seed=0)
        for first, second in zip(tiny_results, rerun):
            assert json.dumps(
                first.deterministic, sort_keys=True
            ) == json.dumps(second.deterministic, sort_keys=True)
            assert first.config == second.config

    def test_different_seed_changes_metrics(self):
        base = run_scenarios(PERF_SCALES["tiny"], seed=0, scenarios=["search"])
        other = run_scenarios(
            PERF_SCALES["tiny"], seed=7, scenarios=["search"]
        )
        assert base[0].deterministic != other[0].deterministic


class TestCompare:
    def test_self_compare_passes_at_zero_tolerance(self, tiny_docs):
        report = compare_documents(tiny_docs, tiny_docs, tolerance=0.0)
        assert report.ok
        assert not report.regressions
        assert "OK" in report.summary()

    def test_regression_beyond_tolerance_fails(self, tiny_docs):
        worse = copy.deepcopy(tiny_docs)
        worse["search"]["deterministic"]["single_latency_us_p50"] *= 1.10
        report = compare_documents(tiny_docs, worse, tolerance=0.05)
        assert not report.ok
        names = {(d.scenario, d.metric) for d in report.regressions}
        assert ("search", "single_latency_us_p50") in names
        assert "REGRESSION" in report.summary()

    def test_within_tolerance_passes(self, tiny_docs):
        close = copy.deepcopy(tiny_docs)
        close["search"]["deterministic"]["single_latency_us_p50"] *= 1.02
        assert compare_documents(tiny_docs, close, tolerance=0.05).ok

    def test_higher_is_better_direction(self, tiny_docs):
        worse = copy.deepcopy(tiny_docs)
        worse["search"]["deterministic"]["single_recall_at_k"] *= 0.5
        report = compare_documents(tiny_docs, worse, tolerance=0.05)
        assert not report.ok
        better = copy.deepcopy(tiny_docs)
        better["search"]["deterministic"]["single_recall_at_k"] = 1.0
        assert compare_documents(tiny_docs, better, tolerance=0.0).ok

    def test_new_metric_is_not_a_failure(self, tiny_docs):
        current = copy.deepcopy(tiny_docs)
        current["search"]["deterministic"]["brand_new_metric"] = 1.0
        report = compare_documents(tiny_docs, current, tolerance=0.05)
        assert report.ok
        assert any(d.verdict == "new" for d in report.deltas)

    def test_missing_metric_is_a_failure(self, tiny_docs):
        current = copy.deepcopy(tiny_docs)
        del current["search"]["deterministic"]["single_latency_us_p50"]
        report = compare_documents(tiny_docs, current, tolerance=0.05)
        assert not report.ok
        assert any(d.verdict == "missing" for d in report.regressions)

    def test_missing_scenario_is_a_failure(self, tiny_docs):
        current = {k: v for k, v in tiny_docs.items() if k != "recovery"}
        report = compare_documents(tiny_docs, current, tolerance=0.05)
        assert not report.ok
        assert report.missing_scenarios == ["recovery"]

    def test_new_scenario_is_not_a_failure(self, tiny_docs):
        baseline = {k: v for k, v in tiny_docs.items() if k != "recovery"}
        report = compare_documents(baseline, tiny_docs, tolerance=0.05)
        assert report.ok
        assert report.new_scenarios == ["recovery"]

    def test_version1_baseline_still_compares(self, tiny_docs):
        # A version-1 base carried host-timed and gating-policy sections and
        # a `throughput` scenario; the comparator reads only the
        # deterministic sections, so the loss of that scenario is the one
        # finding.
        v1 = copy.deepcopy(tiny_docs)
        for doc in v1.values():
            doc["schema_version"] = 1
            doc["wall_clock"] = {"single_search_qps": 1234.5}
            doc["gating"] = {"deterministic": "gate", "wall_clock": "informational"}
        v1["throughput"] = {
            **copy.deepcopy(v1["cache"]),
            "scenario": "throughput",
            "deterministic": {"batch_single_mismatches": 0.0},
            "directions": {"batch_single_mismatches": "lower"},
        }
        report = compare_documents(v1, tiny_docs, tolerance=0.0)
        assert report.missing_scenarios == ["throughput"]
        assert len(report.deltas) == sum(
            len(doc["deterministic"]) for doc in tiny_docs.values()
        )
        assert {d.verdict for d in report.deltas} == {"ok"}

    def test_compare_dirs_matches_documents(self, tiny_results, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_results(tiny_results, a)
        write_results(tiny_results, b)
        assert compare_dirs(a, b, tolerance=0.0).ok

    def test_markdown_outputs(self, tiny_results, tiny_docs):
        summary = run_markdown_summary(tiny_results)
        for scenario in SCENARIOS:
            assert scenario in summary
        worse = copy.deepcopy(tiny_docs)
        worse["search"]["deterministic"]["single_latency_us_p50"] *= 2
        table = compare_documents(tiny_docs, worse, tolerance=0.05).markdown()
        assert "regression" in table
        assert "single_latency_us_p50" in table


def _failed(checks):
    return [(c.scenario, c.metric) for c in checks if not c.ok]


class TestClaims:
    def test_every_claim_holds_at_tiny(self, tiny_results):
        checks = check_claims({r.scenario: r.to_document() for r in tiny_results})
        assert len(checks) == sum(len(rows) for rows in CLAIMS.values())
        assert [str(c) for c in checks if not c.ok] == []

    def test_claims_name_registered_scenarios(self):
        assert set(CLAIMS) <= set(SCENARIOS)

    def test_broken_claim_is_the_one_reported(self, tiny_docs):
        broken = copy.deepcopy(tiny_docs)
        broken["serving_concurrent"]["deterministic"]["pool_parity_mismatches"] = 1.0
        assert _failed(check_claims(broken)) == [
            ("serving_concurrent", "pool_parity_mismatches")
        ]

    def test_claim_on_a_vanished_metric_fails(self, tiny_docs, monkeypatch):
        # A renamed metric must not take its claim down with it silently.
        monkeypatch.setitem(CLAIMS, "cache", (("renamed_hit_rate", ">", 0.5),))
        checks = [c for c in check_claims(tiny_docs) if c.scenario == "cache"]
        assert _failed(checks) == [("cache", "renamed_hit_rate")]
        assert checks[0].value is None
        assert "missing" in str(checks[0])

    def test_recovery_drift_is_absolute_not_relative(self, tiny_docs):
        # A base that already drifted compares clean against a change that
        # drifts the same amount; the claim still rejects it.
        drifted = copy.deepcopy(tiny_docs)
        drifted["recovery"]["deterministic"]["live_vector_drift"] = 1.0
        assert compare_documents(drifted, drifted, tolerance=0.0).ok
        assert _failed(check_claims(drifted)) == [("recovery", "live_vector_drift")]

    def test_main_exits_on_failed_claim(self, tiny_docs, tmp_path, capsys, monkeypatch):
        doc = tiny_docs["serving_concurrent"]
        broken = {**doc["deterministic"], "pool_parity_mismatches": 1.0}
        monkeypatch.setitem(
            SCENARIOS,
            "serving_concurrent",
            lambda scale, seed: ScenarioResult(
                "serving_concurrent", doc["config"], broken
            ),
        )
        out = tmp_path / "out"
        args = ["--scale", "tiny", "--scenarios", "serving_concurrent"]
        assert main([*args, "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "FAILED serving_concurrent.pool_parity_mismatches" in printed
        assert printed.count("[claim] FAILED") == 1
        # Claims are checked on run output; --compare-only does not run.
        compare = ["--compare", str(out), "--out", str(out), "--tolerance", "0"]
        assert main(["--compare-only", *compare]) == 0
        capsys.readouterr()


class TestCli:
    def test_main_run_and_self_compare(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "--scale",
                    "tiny",
                    "--out",
                    str(out),
                    "--scenarios",
                    "cache",
                    "--report",
                    str(tmp_path / "summary.md"),
                ]
            )
            == 0
        )
        assert (out / f"{FILE_PREFIX}cache.json").exists()
        assert (tmp_path / "summary.md").read_text().strip()
        assert (
            main(
                [
                    "--compare-only",
                    "--compare",
                    str(out),
                    "--out",
                    str(out),
                    "--tolerance",
                    "0",
                ]
            )
            == 0
        )
        capsys.readouterr()

    def test_main_detects_injected_regression(self, tmp_path, capsys):
        out = tmp_path / "out"
        baseline = tmp_path / "baseline"
        assert main(["--scale", "tiny", "--out", str(out), "--scenarios", "cache"]) == 0
        baseline.mkdir()
        doc = json.loads((out / f"{FILE_PREFIX}cache.json").read_text())
        doc["deterministic"]["cached_latency_us_p50"] *= 0.5  # baseline was faster
        (baseline / f"{FILE_PREFIX}cache.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True)
        )
        assert (
            main(
                [
                    "--compare-only",
                    "--compare",
                    str(baseline),
                    "--out",
                    str(out),
                    "--tolerance",
                    "0.05",
                ]
            )
            == 1
        )
        capsys.readouterr()

    def test_repro_cli_subcommand(self, tmp_path, capsys):
        assert (
            cli_main(
                [
                    "perf",
                    "--scale",
                    "tiny",
                    "--scenarios",
                    "cache",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / f"{FILE_PREFIX}cache.json").exists()
        capsys.readouterr()
