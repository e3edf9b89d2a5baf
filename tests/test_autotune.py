"""Tests for nprobe auto-tuning."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.autotune import TuneResult, tune_nprobe
from repro.datasets import exact_knn


@pytest.fixture
def validation(built_index, vectors):
    queries = vectors[:25] + 0.01
    truth = exact_knn(vectors, np.arange(len(vectors)), queries, 5)
    return queries, truth


class TestTuneNprobe:
    def test_meets_target(self, built_index, validation):
        queries, truth = validation
        result = tune_nprobe(built_index, queries, truth, k=5, target_recall=0.9)
        assert result.target_met
        assert result.recall >= 0.9

    def test_minimality(self, built_index, validation):
        """One nprobe lower must miss the target (or be nprobe=1)."""
        queries, truth = validation
        result = tune_nprobe(built_index, queries, truth, k=5, target_recall=0.95)
        assert result.target_met
        if result.nprobe > 1:
            from repro.metrics import recall_at_k

            ids = [
                built_index.query(
                    QueryRequest.single(q, k=5, nprobe=result.nprobe - 1)
                ).ids
                for q in queries
            ]
            assert recall_at_k(ids, truth, 5) < 0.95

    def test_easy_target_uses_few_probes(self, built_index, validation):
        queries, truth = validation
        loose = tune_nprobe(built_index, queries, truth, k=5, target_recall=0.5)
        tight = tune_nprobe(built_index, queries, truth, k=5, target_recall=0.99)
        assert loose.nprobe <= tight.nprobe

    def test_unreachable_target_reports_best(self, built_index, validation):
        queries, truth = validation
        result = tune_nprobe(
            built_index, queries, truth, k=5, target_recall=1.0, max_nprobe=1
        )
        if not result.target_met:
            assert result.nprobe == 1
            assert result.recall < 1.0

    def test_binary_search_is_logarithmic(self, built_index, validation):
        queries, truth = validation
        result = tune_nprobe(built_index, queries, truth, k=5, target_recall=0.9)
        import math

        ceiling = built_index.num_postings
        assert result.evaluations <= math.ceil(math.log2(ceiling)) + 2

    def test_invalid_inputs(self, built_index, validation):
        queries, truth = validation
        with pytest.raises(ValueError):
            tune_nprobe(built_index, queries, truth, target_recall=0.0)
        with pytest.raises(ValueError):
            tune_nprobe(
                built_index, np.empty((0, 16), dtype=np.float32), truth[:0]
            )

    def test_result_fields(self, built_index, validation):
        queries, truth = validation
        result = tune_nprobe(built_index, queries, truth, k=5, target_recall=0.8)
        assert isinstance(result, TuneResult)
        assert result.mean_latency_us > 0
        assert result.evaluations >= 1
