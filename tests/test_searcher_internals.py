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


class TestVanishingPostings:
    """A posting deleted under a running query is skipped, never fatal.

    The centroid index keeps pointing at the victim (as it does for the
    instant between a split's posting delete and its centroid removal), so
    navigation still returns it and the fetch has to cope.
    """

    NPROBE = 4

    @staticmethod
    def _hide_from_navigation(index, victim):
        """Navigation that never returns ``victim``: the reference run."""
        search_batch = index.centroid_index.search_batch

        def filtered(queries, k):
            out = []
            for hits in search_batch(queries, k):
                keep = hits.posting_ids != victim
                out.append(type(hits)(hits.posting_ids[keep], hits.distances[keep]))
            return out

        index.centroid_index.search_batch = filtered
        return lambda: setattr(index.centroid_index, "search_batch", search_batch)

    def _victim(self, index, queries):
        """A posting several of ``queries`` probe, never as their only one."""
        hits = index.centroid_index.search_batch(queries, self.NPROBE)
        return int(hits[0].posting_ids[1])

    def _requests(self, queries):
        single = [QueryRequest.single(q, k=5, nprobe=self.NPROBE) for q in queries]
        return single, QueryRequest(vectors=queries, k=5, nprobe=self.NPROBE)

    def test_deleted_before_fetch_is_skipped(self, built_index, vectors):
        index, queries = built_index, vectors[:12]
        # No budget: its prefix would drop the stale posting before the fetch.
        index.searcher.latency_budget_us = None
        victim = self._victim(index, queries)
        singles, batch = self._requests(queries)
        restore = self._hide_from_navigation(index, victim)
        want = [index.query(r).result for r in singles]
        want_batch = index.query(batch).results
        restore()

        index.controller.delete(victim)  # the centroid stays registered
        got = [index.query(r).result for r in singles]
        got_batch = index.query(batch).results
        probed_victim = 0
        for w, wb, g, gb in zip(want, want_batch, got, got_batch):
            for ref, out in ((w, g), (wb, gb)):
                np.testing.assert_array_equal(out.ids, ref.ids)
                np.testing.assert_array_equal(out.distances, ref.distances)
                assert out.entries_scanned == ref.entries_scanned
                assert out.undersized_postings == ref.undersized_postings
            assert g.postings_probed == gb.postings_probed
            probed_victim += g.postings_probed - w.postings_probed
        assert probed_victim >= 1  # navigation did hand the victim out

    def test_vanishing_before_rerank_drops_only_its_rows(self, vectors, small_config):
        # One copy per vector and a rerank budget covering every candidate:
        # losing the victim's rows at the rerank read must leave exactly the
        # answer of never having probed it.
        config = small_config.with_overrides(
            quant_enabled=True,
            quant_kind="pq",
            quant_subspaces=4,
            quant_rerank_k=10**6,
            replica_count=1,
            reassign_replicas=1,
            search_latency_budget_us=None,
        )
        index = SPFreshIndex.build(vectors, config=config)
        queries = vectors[:12]
        victim = self._victim(index, queries)
        victim_rows = index.controller.length(victim)
        singles, batch = self._requests(queries)
        normal = [index.query(r).result for r in singles]
        restore = self._hide_from_navigation(index, victim)
        want = [index.query(r).result for r in singles]
        want_batch = index.query(batch).results
        restore()

        controller = index.controller
        fetch_codes = controller.parallel_get_codes
        saved = controller.get(victim)[0]

        def fetch_then_lose_victim(posting_ids):
            out = fetch_codes(posting_ids)
            if controller.exists(victim):
                controller.delete(victim)
            return out

        controller.parallel_get_codes = fetch_then_lose_victim
        got = []
        for request in singles:
            got.append(index.query(request).result)
            controller.create(victim, saved)  # back for the next query
        got_batch = index.query(batch).results
        hit = 0
        for w, wb, g, gb, full in zip(want, want_batch, got, got_batch, normal):
            for ref, out in ((w, g), (wb, gb)):
                np.testing.assert_array_equal(out.ids, ref.ids)
                np.testing.assert_array_equal(out.distances, ref.distances)
                assert out.reranked_entries == ref.reranked_entries
            # The code scan did see the victim; only the rerank lost it.
            assert g.entries_scanned == gb.entries_scanned == full.entries_scanned
            if g.postings_probed > w.postings_probed:
                hit += 1
                assert g.entries_scanned == w.entries_scanned + victim_rows
                assert g.reranked_entries < full.reranked_entries
        assert hit >= 1
