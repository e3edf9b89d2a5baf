"""Tests for the tracing module."""

import threading

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.metrics.tracing import TraceLog, TracedIndex
from tests.conftest import DIM


class TestTraceLog:
    def test_record_and_query(self):
        log = TraceLog()
        log.record("search", 100.0)
        log.record("insert", 50.0)
        log.record("search", 200.0)
        assert len(log) == 3
        assert log.kinds() == {"search", "insert"}
        assert len(log.events("search")) == 2

    def test_summary(self):
        log = TraceLog()
        for latency in (10.0, 20.0, 30.0):
            log.record("op", latency)
        summary = log.summary("op")
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(20.0)
        assert summary["max"] == 30.0

    def test_summary_empty_kind(self):
        assert TraceLog().summary("nothing")["count"] == 0

    def test_bounded_capacity(self):
        log = TraceLog(capacity=5)
        for i in range(8):
            log.record("x", float(i))
        assert len(log) == 5
        assert log.dropped == 3
        assert [e.latency_us for e in log.events()] == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)

    def test_timeline_buckets(self):
        log = TraceLog()
        for t, latency in ((0.0, 10.0), (0.4, 30.0), (1.2, 100.0)):
            log.record("search", latency, timestamp=t)
        timeline = log.timeline(1.0)
        assert len(timeline) == 2
        first_start, first_count, first_mean = timeline[0]
        assert first_count == 2
        assert first_mean == pytest.approx(20.0)

    def test_timeline_invalid_bucket(self):
        with pytest.raises(ValueError):
            TraceLog().timeline(0.0)

    def test_clear(self):
        log = TraceLog(capacity=2)
        log.record("a", 1.0)
        log.record("a", 1.0)
        log.record("a", 1.0)
        log.clear()
        assert len(log) == 0 and log.dropped == 0

    def test_thread_safety(self):
        log = TraceLog(capacity=10_000)

        def writer():
            for i in range(1000):
                log.record("w", float(i))

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 4000


class TestTracedIndex:
    def test_wraps_operations(self, built_index, rng):
        traced = TracedIndex(built_index)
        traced.insert(90_001, rng.normal(size=DIM).astype(np.float32))
        traced.delete(0)
        query = rng.normal(size=DIM).astype(np.float32)
        assert len(traced.query(QueryRequest.single(query, k=5)).ids) == 5
        assert traced.trace.summary("insert")["count"] == 1
        assert traced.trace.summary("delete")["count"] == 1
        assert traced.trace.summary("search")["count"] == 1

    def test_delegates_attributes(self, built_index):
        traced = TracedIndex(built_index)
        assert traced.num_postings == built_index.num_postings
        assert traced.live_vector_count == built_index.live_vector_count

    def test_search_detail_recorded(self, built_index, vectors):
        traced = TracedIndex(built_index)
        traced.query(QueryRequest.single(vectors[0], k=5, nprobe=4))
        event = traced.trace.events("search")[0]
        assert event.detail["postings"] >= 1
