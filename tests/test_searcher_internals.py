"""Focused unit tests for searcher internals (budget prefix, latency math)."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex


class TestBudgetPrefix:
    def test_no_budget_keeps_everything(self, built_index):
        built_index.searcher.latency_budget_us = None
        pids = built_index.controller.posting_ids()[:6]
        kept, truncated = built_index.searcher._budget_prefix(pids)
        assert kept == pids and not truncated

    def test_always_keeps_first_posting(self, built_index):
        built_index.searcher.latency_budget_us = 1.0  # impossibly tight
        pids = built_index.controller.posting_ids()[:6]
        kept, truncated = built_index.searcher._budget_prefix(pids)
        assert len(kept) >= 1
        assert truncated

    def test_prefix_order_preserved(self, built_index):
        built_index.searcher.latency_budget_us = 500.0
        pids = built_index.controller.posting_ids()[:10]
        kept, _ = built_index.searcher._budget_prefix(pids)
        assert kept == pids[: len(kept)]

    def test_stale_pids_skipped(self, built_index):
        pids = [999_999] + built_index.controller.posting_ids()[:3]
        kept, _ = built_index.searcher._budget_prefix(pids)
        assert 999_999 not in kept


class TestLatencyMath:
    def test_latency_components_sum(self, built_index, vectors):
        built_index.searcher.latency_budget_us = None
        result = built_index.query(QueryRequest.single(vectors[0], k=5, nprobe=4)).result
        expected_cpu = (
            built_index.searcher.cpu_cost_per_query_us
            + built_index.searcher.cpu_cost_per_entry_us * result.entries_scanned
        )
        assert result.latency_us == pytest.approx(
            result.io_latency_us + expected_cpu, rel=1e-6
        )

    def test_hard_cut_caps_latency(self, vectors, small_config):
        config = small_config.with_overrides(search_latency_budget_us=200.0)
        index = SPFreshIndex.build(vectors, config=config)
        result = index.query(QueryRequest.single(vectors[0], k=5, nprobe=64)).result
        assert result.latency_us <= 200.0

    def test_io_latency_matches_device_model(self, built_index, vectors):
        result = built_index.query(QueryRequest.single(vectors[0], k=5, nprobe=4)).result
        profile = built_index.ssd.profile
        # io latency must be a whole number of read waves.
        waves = result.io_latency_us / profile.read_latency_us
        assert waves == pytest.approx(round(waves))

    def test_truncated_query_charged_exactly_budget(self, vectors, small_config):
        config = small_config.with_overrides(search_latency_budget_us=200.0)
        index = SPFreshIndex.build(vectors, config=config)
        result = index.query(QueryRequest.single(vectors[0], k=5, nprobe=64)).result
        assert result.truncated
        assert result.latency_us == pytest.approx(200.0)

    def test_untruncated_over_budget_query_reports_true_latency(
        self, vectors, small_config
    ):
        """Regression: the blanket min(latency, budget) clamp hid over-budget
        queries that were never truncated (a single too-large first posting),
        skewing Fig-2/Fig-7 style measurements."""
        index = SPFreshIndex.build(vectors, config=small_config)
        # One candidate posting only: the prefix always keeps the first, so
        # truncation can never trigger, however far over budget it runs.
        index.searcher.latency_budget_us = 1.0
        result = index.query(QueryRequest.single(vectors[0], k=5, nprobe=1)).result
        assert not result.truncated
        assert result.latency_us > 1.0
        expected_cpu = (
            index.searcher.cpu_cost_per_query_us
            + index.searcher.cpu_cost_per_entry_us * result.entries_scanned
        )
        assert result.latency_us == pytest.approx(
            result.io_latency_us + expected_cpu, rel=1e-6
        )

    def test_budget_prefix_accounts_cpu_scan_cost(self, built_index):
        """The truncation decision must include the per-entry CPU term it
        later charges, not just projected I/O."""
        searcher = built_index.searcher
        pids = built_index.controller.posting_ids()[:6]
        io_only_budget = 1e9  # I/O never the binding constraint
        searcher.latency_budget_us = io_only_budget
        kept, truncated = searcher._budget_prefix(pids)
        assert kept == pids and not truncated
        # Make the scan cost dominate: a budget the CPU term alone exceeds
        # after the first posting must truncate the prefix.
        first_len = built_index.controller.length(pids[0])
        searcher.cpu_cost_per_entry_us = 1e6
        searcher.latency_budget_us = (
            searcher.cpu_cost_per_query_us + 1e6 * (first_len + 0.5)
        )
        kept, truncated = searcher._budget_prefix(pids)
        assert truncated
        assert kept == pids[:1]


class TestBuildDeterminism:
    def test_same_seed_same_index(self, vectors, small_config):
        a = SPFreshIndex.build(vectors, config=small_config)
        b = SPFreshIndex.build(vectors, config=small_config)
        assert a.num_postings == b.num_postings
        np.testing.assert_array_equal(
            np.sort(a.posting_sizes()), np.sort(b.posting_sizes())
        )
        for q in vectors[:5]:
            ra = a.query(QueryRequest.single(q, k=5, nprobe=8)).result
            rb = b.query(QueryRequest.single(q, k=5, nprobe=8)).result
            np.testing.assert_array_equal(ra.ids, rb.ids)

    def test_different_seed_different_partitioning(self, vectors, small_config):
        a = SPFreshIndex.build(vectors, config=small_config)
        b = SPFreshIndex.build(
            vectors, config=small_config.with_overrides(seed=99)
        )
        # Same data, different clustering randomness: geometry may differ
        # but search answers at full probe must agree (correctness).
        for q in vectors[:5]:
            ra = a.query(QueryRequest.single(q, k=5, nprobe=a.num_postings)).result
            rb = b.query(QueryRequest.single(q, k=5, nprobe=b.num_postings)).result
            assert set(map(int, ra.ids)) == set(map(int, rb.ids))
