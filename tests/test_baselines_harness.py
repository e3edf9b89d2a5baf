"""Tests for the SPANN+ baseline and the bench harness."""

import numpy as np
import pytest

from repro.baselines import build_spann_plus
from repro.bench.cost_model import (
    RebuildCostModel,
    measure_diskann_build,
    measure_spfresh_build,
    table1_rows,
)
from repro.bench.harness import run_update_simulation, summarize
from repro.bench.reporting import format_series, format_table
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.datasets import workload_b
from tests.conftest import DIM


class TestSpannPlus:
    def test_lire_disabled(self, vectors, small_config):
        index = build_spann_plus(vectors, config=small_config)
        assert not index.config.enable_split
        assert not index.config.enable_merge
        assert not index.config.enable_reassign

    def test_kwargs_preset(self, vectors):
        index = build_spann_plus(
            vectors, dim=DIM, max_posting_size=64, ssd_blocks=1 << 13
        )
        assert index.config.max_posting_size == 64

    def test_postings_grow_without_splits(self, vectors, small_config, rng):
        index = build_spann_plus(vectors, config=small_config)
        centroid = index.centroid_index.get(0)
        for i in range(120):
            index.insert(
                10_000 + i,
                (centroid + rng.normal(scale=0.05, size=DIM)).astype(np.float32),
            )
        index.drain()
        assert index.stats.splits == 0
        assert index.posting_sizes().max() > small_config.max_posting_size

    def test_gc_pass_controls_garbage(self, vectors, small_config):
        index = build_spann_plus(vectors, config=small_config)
        for vid in range(150):
            index.delete(vid)
        before = index.controller.total_entries()
        index.gc_pass()
        assert index.controller.total_entries() < before


@pytest.fixture(scope="module")
def tiny_workload():
    return workload_b(n_base=600, days=3, daily_rate=0.02, dim=DIM, num_queries=15)


class TestHarness:
    def test_spfresh_day_series(self, tiny_workload):
        config = SPFreshConfig(
            dim=DIM, ssd_blocks=1 << 13, max_posting_size=48,
            build_target_posting_size=24,
        )
        index = SPFreshIndex.build(
            tiny_workload.base_vectors, ids=tiny_workload.base_ids, config=config
        )
        results = run_update_simulation(index, tiny_workload, k=5)
        assert len(results) == 3
        for day in results:
            assert 0.0 <= day.recall <= 1.0
            assert day.search_p999_us >= day.search_p50_us
            assert day.live_vectors == 600
            assert day.memory_mb > 0
        stats = summarize(results)
        assert stats["mean_recall"] > 0.7
        assert set(stats) >= {"mean_p999_ms", "peak_memory_mb", "mean_insert_us"}

    def test_diskann_adapter(self, tiny_workload):
        from repro.baselines.diskann import DiskANNConfig, FreshDiskANNIndex

        config = DiskANNConfig(dim=DIM, merge_threshold=30, ssd_blocks=1 << 12)
        index = FreshDiskANNIndex.build(
            tiny_workload.base_vectors, ids=tiny_workload.base_ids, config=config
        )
        results = run_update_simulation(index, tiny_workload, k=5)
        assert len(results) == 3
        assert all(r.recall > 0.2 for r in results)
        assert index.merges_completed >= 1  # 12 deletes a day, threshold 30

    def test_summarize_empty(self):
        assert summarize([]) == {}


class TestReporting:
    def test_format_table(self):
        out = format_table(
            ["name", "value"], [["a", 1.23456], ["bb", 1234.5]], title="T"
        )
        assert "== T ==" in out
        assert "1.235" in out and "1,234" in out

    def test_format_series(self, tiny_workload):
        config = SPFreshConfig(dim=DIM, ssd_blocks=1 << 13)
        index = SPFreshIndex.build(
            tiny_workload.base_vectors, ids=tiny_workload.base_ids, config=config
        )
        results = run_update_simulation(index, tiny_workload, k=5, queries_per_day=5)
        out = format_series(results, every=2)
        assert "recall" in out and "day" in out


class TestCostModel:
    def test_projection_math(self):
        model = RebuildCostModel("x", 1000, 2.0, 10_000)
        assert model.projected_hours(1_000_000, speedup=1.0) == pytest.approx(
            2000 / 3600
        )
        assert model.projected_memory_gb(1_000_000) == pytest.approx(
            10_000_000 / 1024**3
        )

    def test_measured_builds(self, vectors, small_config):
        from repro.baselines.diskann import DiskANNConfig

        spann = measure_spfresh_build(vectors, small_config)
        diskann = measure_diskann_build(
            vectors, DiskANNConfig(dim=DIM, ssd_blocks=1 << 12)
        )
        assert spann.measured_seconds > 0
        assert diskann.measured_seconds > 0
        rows = table1_rows(spann, diskann, target_vectors=10**6)
        assert len(rows) == 2
        assert "DiskANN" in rows[0][0]
