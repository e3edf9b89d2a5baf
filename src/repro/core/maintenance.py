"""Proactive maintenance scanner.

The paper triggers merges opportunistically — "a merge job is triggered by
the Searcher if it finds some postings are smaller than a minimum length
threshold" (§4.1). Postings that queries never touch can therefore stay
undersized (or garbage-laden) indefinitely. This scanner is the
complementary policy a production deployment runs at low priority: sweep
the posting table, queue merges for undersized postings, GC rewrites for
garbage-heavy ones, and splits for any posting that slipped past the
updater's check. The sweep reads postings without their locks — enough to
choose candidates; anything it rewrites goes through the rebuilder's
locked ``gc_posting``, the same call ``SPFreshIndex.gc_pass`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.jobs import FlushJob, MergeJob, SplitJob
from repro.spann.postings import live_view
from repro.util.errors import StalePostingError


@dataclass
class ScanReport:
    """What one sweep saw and scheduled."""

    postings_scanned: int = 0
    merges_scheduled: int = 0
    splits_scheduled: int = 0
    flushes_scheduled: int = 0
    gc_rewrites: int = 0
    dead_entries_seen: int = 0

    @property
    def jobs_scheduled(self) -> int:
        return (
            self.merges_scheduled + self.splits_scheduled + self.flushes_scheduled
        )


class MaintenanceScanner:
    """Sweeps postings and feeds the Local Rebuilder's job queue.

    ``garbage_threshold`` is the dead-entry fraction above which a posting
    is rewritten eagerly instead of waiting for its next split.
    """

    def __init__(self, index, garbage_threshold: float = 0.5) -> None:
        if not 0.0 < garbage_threshold <= 1.0:
            raise ValueError("garbage_threshold must be in (0, 1]")
        self.index = index
        self.garbage_threshold = garbage_threshold

    def scan(self, max_postings: int | None = None, drain: bool = True) -> ScanReport:
        """One sweep over (up to ``max_postings``) postings."""
        report = ScanReport()
        config = self.index.config
        # Inserts below fresh_flush_threshold would otherwise sit in the
        # tier indefinitely (the updater only requests a flush at the
        # threshold) — the scanner is the low-priority sweep that drains
        # stragglers, the same policy it applies to untouched postings.
        tier = getattr(self.index, "fresh_tier", None)
        if tier is not None and len(tier) > 0:
            if self.index.job_queue.put(FlushJob()):
                report.flushes_scheduled += 1
        for pid in self.index.controller.posting_ids():
            if max_postings is not None and report.postings_scanned >= max_postings:
                break
            try:
                data, _ = self.index.controller.get(pid)
            except StalePostingError:
                continue  # deleted concurrently; real storage errors propagate
            report.postings_scanned += 1
            live = live_view(data, self.index.version_map)
            dead = len(data) - len(live)
            report.dead_entries_seen += dead
            if len(live) > config.max_posting_size and config.enable_split:
                if self.index.job_queue.put(SplitJob(posting_id=pid)):
                    report.splits_scheduled += 1
            elif len(live) < config.min_posting_size and config.enable_merge:
                if self.index.job_queue.put(MergeJob(posting_id=pid)):
                    report.merges_scheduled += 1
            elif dead and dead / len(data) >= self.garbage_threshold:
                # The read above only picks the candidate; the rewrite
                # re-reads under the posting lock.
                report.gc_rewrites += self.index.rebuilder.gc_posting(pid)
        if drain and self.index.config.synchronous_rebuild:
            self.index.drain()
        return report
