"""Deterministic race/invariant stress tests for the background pipeline.

These drive the full LIRE pipeline — background rebuild workers plus
concurrent foreground inserts/deletes/searches — under seeded chaos
schedules that force yields at lock-acquisition and job-dequeue
boundaries, then audit the quiesced index with ``check_invariants``.

The default lane runs one quick configuration; the seed/worker sweep is
marked ``slow`` (deselect with ``-m "not slow"``).
"""

import pytest

from repro.bench.stress import ChaosSchedule, StressConfig, run_stress


class TestChaosSchedule:
    def test_same_seed_same_decision_stream(self):
        def decisions(seed):
            chaos = ChaosSchedule(seed=seed, max_sleep_us=0.0)
            out = []
            for i in range(300):
                before = chaos.yields
                chaos("lock.acquire", i)
                out.append(chaos.yields - before)
            return out

        assert decisions(42) == decisions(42)
        assert decisions(42) != decisions(43)

    def test_yield_rate_tracks_probabilities(self):
        chaos = ChaosSchedule(
            seed=1, yield_probability=0.5, sleep_probability=0.0, max_sleep_us=0.0
        )
        for i in range(1000):
            chaos("queue.get", None)
        assert chaos.calls == 1000
        assert 350 < chaos.yields < 650

    def test_install_wires_index_hooks(self, built_index):
        chaos = ChaosSchedule(seed=0)
        chaos.install(built_index)
        assert built_index.locks.chaos is chaos
        assert built_index.job_queue.chaos is chaos
        assert chaos.stats is built_index.stats

    def test_yields_counted_in_stats(self, built_index):
        chaos = ChaosSchedule(
            seed=0, yield_probability=1.0, sleep_probability=0.0, max_sleep_us=0.0
        ).install(built_index)
        with built_index.locks.hold(built_index.controller.posting_ids()[0]):
            pass
        assert chaos.yields >= 1
        assert built_index.stats.chaos_yields == chaos.yields


class TestStressHarness:
    def test_quick_chaos_run_holds_invariants(self):
        """Acceptance: background pipeline (2 workers) under a seeded chaos
        schedule passes check_invariants after stop()."""
        report = run_stress(
            StressConfig(
                seed=0,
                foreground_threads=2,
                background_workers=2,
                ops_per_thread=80,
            )
        )
        assert report.ok, report.summary()
        assert report.inserts > 0 and report.searches > 0
        assert report.chaos_yields > 0  # the schedule actually interfered
        assert not report.worker_errors
        assert report.invariants is not None and report.invariants.ok

    def test_report_summary_readable(self):
        report = run_stress(
            StressConfig(seed=5, foreground_threads=2, ops_per_thread=40)
        )
        text = report.summary()
        assert "stress seed=5" in text
        assert "self-recall" in text
        # The batch a row's CAS-to-first-copy gap is bounded by.
        assert ("reassign rows/job" in text) == bool(report.reassign_job_rows)
        if report.reassign_job_rows:
            assert f"max {max(report.reassign_job_rows)}" in text

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "seed,threads,workers",
        [(1, 3, 2), (2, 4, 4), (3, 2, 8), (4, 6, 3)],
    )
    def test_seeded_sweep(self, seed, threads, workers):
        report = run_stress(
            StressConfig(
                seed=seed,
                foreground_threads=threads,
                background_workers=workers,
                ops_per_thread=150,
            )
        )
        assert report.ok, report.summary()

    @pytest.mark.slow
    def test_heavy_chaos_still_converges(self):
        """Maximum interference: yields at every boundary plus long sleeps."""
        report = run_stress(
            StressConfig(
                seed=9,
                foreground_threads=3,
                background_workers=4,
                ops_per_thread=100,
                chaos_yield_probability=0.9,
                chaos_sleep_probability=0.1,
                chaos_max_sleep_us=1000.0,
            )
        )
        assert report.ok, report.summary()
