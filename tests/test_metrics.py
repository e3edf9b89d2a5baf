"""Tests for recall, latency tracking, and resource models."""

import numpy as np
import pytest

from repro.metrics import LatencyTracker, recall_at_k, recall_curve
from repro.metrics.resources import ResourceModel, index_memory_report


class TestRecall:
    def test_perfect(self):
        assert recall_at_k([[1, 2, 3]], [[3, 2, 1]]) == 1.0

    def test_partial(self):
        assert recall_at_k([[1, 2, 9]], [[1, 2, 3]]) == pytest.approx(2 / 3)

    def test_zero(self):
        assert recall_at_k([[7, 8]], [[1, 2]]) == 0.0

    def test_k_truncation(self):
        # Only the first k results and ground truths count.
        assert recall_at_k([[1, 9]], [[1, 2, 3]], k=1) == 1.0

    def test_mean_over_queries(self):
        result = recall_at_k([[1], [9]], [[1], [2]])
        assert result == pytest.approx(0.5)

    def test_empty_ground_truth_skipped(self):
        assert recall_at_k([[1], [2]], [[], [2]]) == 1.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            recall_at_k([[1]], [[1], [2]])

    def test_numpy_inputs(self):
        got = recall_at_k(np.array([[1, 2]]), np.array([[2, 3]]))
        assert got == pytest.approx(0.5)


class TestRecallCurve:
    def test_sweep_shape(self, built_index, vectors):
        from repro.datasets import exact_knn

        queries = vectors[:10]
        gt = exact_knn(vectors, np.arange(len(vectors)), queries, 5)
        curve = recall_curve(built_index, queries, gt, k=5, nprobes=[1, 4, 16])
        assert len(curve) == 3
        nprobes, recalls, latencies = zip(*curve)
        assert nprobes == (1, 4, 16)
        assert recalls[-1] >= recalls[0]  # more probes never hurt on average
        assert latencies[-1] >= latencies[0]


class TestLatencyTracker:
    def test_percentiles(self):
        tracker = LatencyTracker()
        tracker.extend(range(1, 101))
        assert tracker.percentile(50) == pytest.approx(50.5)
        assert tracker.percentile(99) == pytest.approx(99.01, abs=0.1)
        assert tracker.mean == pytest.approx(50.5)
        assert tracker.max == 100

    def test_empty(self):
        tracker = LatencyTracker()
        assert tracker.percentile(99) == 0.0
        assert tracker.mean == 0.0
        assert len(tracker) == 0

    def test_summary_keys(self):
        tracker = LatencyTracker()
        tracker.record(10.0)
        summary = tracker.summary()
        for key in ("p50", "p90", "p95", "p99", "p99.9", "mean", "max"):
            assert key in summary

    def test_qps(self):
        tracker = LatencyTracker()
        tracker.extend([1.0] * 50)
        assert tracker.qps(2.0) == 25.0
        assert tracker.qps(0.0) == 0.0

    def test_reset(self):
        tracker = LatencyTracker()
        tracker.record(5.0)
        tracker.reset()
        assert len(tracker) == 0


class TestResourceModel:
    def test_total(self):
        model = ResourceModel(
            vectors=100,
            postings=10,
            centroid_bytes=1000,
            version_map_bytes=100,
            block_mapping_bytes=400,
        )
        assert model.total_bytes == 1500

    def test_projection_linear(self):
        model = ResourceModel(
            vectors=100,
            postings=10,
            centroid_bytes=1000,
            version_map_bytes=100,
            block_mapping_bytes=400,
        )
        assert model.projected_bytes(200) == 2 * model.total_bytes

    def test_projection_zero_vectors(self):
        model = ResourceModel(0, 0, 0, 0, 0)
        assert model.projected_bytes(100) == 0

    def test_index_report(self, built_index):
        report = index_memory_report(built_index)
        assert report.vectors == built_index.live_vector_count
        assert report.postings == built_index.num_postings
        assert report.total_bytes == built_index.memory_bytes()
