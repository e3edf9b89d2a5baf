"""Structured operation tracing (observability for experiments).

`TraceLog` is a bounded, thread-safe event log for per-operation records:
searches, inserts, rebuild jobs. The bench harness aggregates day-level
numbers; the trace keeps the raw per-op stream so experiments can ask
finer questions — latency by operation kind, timeline buckets around a
merge event, or background-vs-foreground I/O attribution.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TraceEvent:
    """One traced operation."""

    timestamp: float
    kind: str
    latency_us: float
    detail: dict | None = None


class TraceLog:
    """Bounded in-memory event log with per-kind aggregation."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._dropped = 0

    def record(  # one traced operation
        self,
        kind: str,
        latency_us: float,
        detail: dict | None = None,
        timestamp: float | None = None,
    ) -> None:
        event = TraceEvent(
            timestamp=timestamp if timestamp is not None else time.monotonic(),
            kind=kind,
            latency_us=float(latency_us),
            detail=detail,
        )
        with self._lock:
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [e for e in snapshot if e.kind == kind]

    def kinds(self) -> set[str]:
        with self._lock:
            return {e.kind for e in self._events}

    def summary(self, kind: str) -> dict[str, float]:
        """count / mean / p50 / p99 / max latency for one op kind."""
        latencies = np.array(
            [e.latency_us for e in self.events(kind)], dtype=np.float64
        )
        if len(latencies) == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": int(len(latencies)),
            "mean": float(latencies.mean()),
            "p50": float(np.percentile(latencies, 50)),
            "p99": float(np.percentile(latencies, 99)),
            "max": float(latencies.max()),
        }

    def timeline(
        self, bucket_s: float, kind: str | None = None
    ) -> list[tuple[float, int, float]]:
        """(bucket start, op count, mean latency) per time bucket."""
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        events = self.events(kind)
        if not events:
            return []
        start = events[0].timestamp
        buckets: dict[int, list[float]] = {}
        for event in events:
            slot = int((event.timestamp - start) / bucket_s)
            buckets.setdefault(slot, []).append(event.latency_us)
        return [
            (start + slot * bucket_s, len(vals), float(np.mean(vals)))
            for slot, vals in sorted(buckets.items())
        ]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._dropped = 0


class TracedIndex:
    """Transparent tracing wrapper around an SPFresh-like index.

    Delegates everything; intercepts query/insert/delete to record their
    simulated latencies into a :class:`TraceLog`.
    """

    def __init__(self, index, log: TraceLog | None = None) -> None:
        self._index = index
        self.trace = log or TraceLog()

    def query(self, request):
        response = self._index.query(request)
        for result in response.results:
            self.trace.record(
                "search",
                result.latency_us,
                detail={"postings": result.postings_probed},
            )
        return response

    def insert(self, vector_id, vector):
        latency = self._index.insert(vector_id, vector)
        self.trace.record("insert", latency)
        return latency

    def delete(self, vector_id):
        latency = self._index.delete(vector_id)
        self.trace.record("delete", latency)
        return latency

    def __getattr__(self, name):
        return getattr(self._index, name)
