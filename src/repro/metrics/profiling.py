"""Scoped wall-clock profiler for the searcher's query path.

The repo runs two clocks. The *simulated* clock — device waves, modelled
CPU cost — is deterministic and gated by the perf harness. The *wall*
clock is how fast this Python process actually executes; it is machine-
dependent and informational. This module splits the searcher's share of
the second clock into SPANN's query stages:

* ``Profiler.section("scan")`` is a context manager around a code region;
  enabled profilers aggregate ``perf_counter_ns`` deltas per stage
  (calls, total, max), disabled ones return a shared no-op context whose
  enter/exit do nothing — the disabled cost is one attribute check per
  section.
* ``SpannSearcher`` records five stages: ``navigate`` (centroid index),
  ``tables`` (PQ distance tables), ``scan`` (distance kernels over the
  fetched postings and the fresh tier), ``rerank`` (exact re-scoring of
  compressed candidates) and ``topk`` (dedup + selection).
  ``SPFreshIndex.profile_snapshot()`` returns them and
  ``benchmarks/e2e/run.py --trace 1`` reports them as
  ``searcher.stage_*_frac``. The posting fetch is not a stage: the e2e
  trace times it as the controller and device layers.
* ``snapshot()`` returns plain dicts for JSON emission.

Thread-safety: counters are guarded by a lock taken only on section *exit*
of an enabled profiler; the disabled path is lock-free.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


@dataclass
class StageStats:
    """Aggregated wall-clock time of one stage."""

    calls: int = 0
    total_ns: int = 0
    max_ns: int = 0

    @property
    def total_us(self) -> float:
        return self.total_ns / 1_000.0

    @property
    def mean_us(self) -> float:
        return self.total_ns / self.calls / 1_000.0 if self.calls else 0.0

    @property
    def max_us(self) -> float:
        return self.max_ns / 1_000.0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_us": round(self.total_us, 3),
            "mean_us": round(self.mean_us, 3),
            "max_us": round(self.max_us, 3),
        }


class _NullSection:
    """Shared no-op context manager: the disabled profiler's entire cost."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SECTION = _NullSection()


class _Section:
    """Timed scope; records into its profiler on exit."""

    __slots__ = ("_profiler", "_stage", "_start")

    def __init__(self, profiler: "Profiler", stage: str) -> None:
        self._profiler = profiler
        self._stage = stage

    def __enter__(self) -> "_Section":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self._profiler.record(self._stage, time.perf_counter_ns() - self._start)


class Profiler:
    """Per-stage wall-clock aggregator, disabled by default.

    An index owns one and hands it to its searcher; a snapshot shows where
    the searcher's wall-clock time went, stage by stage.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._stages: dict[str, StageStats] = {}

    def section(self, stage: str):
        """Context manager timing a region under ``stage`` (no-op if disabled)."""
        if not self.enabled:
            return _NULL_SECTION
        return _Section(self, stage)

    def record(self, stage: str, elapsed_ns: int) -> None:
        """Fold one measured duration into a stage's aggregate."""
        if not self.enabled:
            return
        with self._lock:
            stats = self._stages.get(stage)
            if stats is None:
                stats = self._stages[stage] = StageStats()
            stats.calls += 1
            stats.total_ns += elapsed_ns
            if elapsed_ns > stats.max_ns:
                stats.max_ns = elapsed_ns

    def snapshot(self) -> dict[str, dict]:
        """Stage name → aggregate dict, sorted by descending total time."""
        with self._lock:
            items = sorted(
                self._stages.items(), key=lambda kv: -kv[1].total_ns
            )
            return {stage: stats.to_dict() for stage, stats in items}


NULL_PROFILER = Profiler(enabled=False)

