"""The write path: PostingWriter and the foreground Updater (paper §4.1).

Every vector copy reaches a posting through one :meth:`PostingWriter.land`:
its callers (insert, fresh-tier flush, reassign, merge) route, and ``land``
appends once per destination under the posting lock, queues splits in
one-row-append order and re-routes rows whose postings a concurrent split
deleted (§4.2.2) — so a flush lands what direct inserts of its rows, taken
in posting order, would.

The :class:`Updater` is the front-end of the feed-forward pipeline: log,
register, then buffer in the fresh tier or land on disk; deletes are
tombstones in the version map. It never splits, merges, or reassigns
itself — that work is off the critical path by design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.centroids.base import CentroidIndex, CentroidSearchResult
from repro.core.config import SPFreshConfig
from repro.core.fresh_tier import FreshTier
from repro.core.ids import IdAllocator
from repro.core.jobs import FlushJob, JobQueue, PostingLockManager, SplitJob
from repro.core.stats import LireStats
from repro.core.version_map import VersionMap
from repro.metrics.profiling import NULL_PROFILER, Profiler
from repro.spann.closure import select_replicas
from repro.storage.controller import BlockController
from repro.storage.layout import PostingData
from repro.storage.wal import WriteAheadLog
from repro.util.distance import as_vector
from repro.util.errors import IndexError_

FRESH_INSERT_CPU_US = 2.0  # modelled foreground cost of a fresh-tier insert


@dataclass(slots=True)
class Landing:
    """What one :meth:`PostingWriter.land` has put on disk, kept current as
    it goes so the caller can still read it after an append raised."""

    landed: list[bool]  # per row: has a copy on disk
    io_us: float = 0.0  # device time
    copies: int = 0
    appends: int = 0


@dataclass
class PostingWriter:
    """The one route / land (lock, append, split trigger, re-route) path."""

    centroid_index: CentroidIndex
    controller: BlockController
    locks: PostingLockManager
    job_queue: JobQueue
    stats: LireStats
    config: SPFreshConfig
    posting_ids: IdAllocator

    def route(self, vector: np.ndarray, replicas: int) -> list[int]:
        """Target posting(s) by the closure rule (pure distance ratio, see
        SPFreshConfig.closure_epsilon), nearest first; [] in an empty index."""
        hits = self.centroid_index.search(vector, max(replicas * 2, 4))
        return self._targets(hits, replicas)

    def route_batch(self, vectors: np.ndarray, replicas: int) -> list[list[int]]:
        """:meth:`route` for every row with one ``search_batch`` — the same
        targets per row by that call's contract; its distance kernel bounds
        the broadcast temporary however many rows arrive."""
        batch = self.centroid_index.search_batch(vectors, max(replicas * 2, 4))
        return [self._targets(hits, replicas) for hits in batch]

    def _targets(self, hits: CentroidSearchResult, replicas: int) -> list[int]:
        if len(hits) == 0:
            return []
        if replicas == 1:
            return [hits.nearest]
        return select_replicas(
            hits.posting_ids, hits.distances, replicas, self.config.closure_epsilon
        )

    def append_rows(
        self, posting_id: int, rows: PostingData
    ) -> tuple[float, int] | None:
        """The locked append: (device us, posting length after it). A
        posting that no longer exists is counted once
        (``reassign_posting_missing``) and reported as None."""
        with self.locks.hold(posting_id):
            if not self.controller.exists(posting_id):
                self.stats.incr("reassign_posting_missing")
                return None
            io_us = self.controller.append(posting_id, rows)
            return io_us, self.controller.length(posting_id)

    def land(
        self,
        rows: PostingData,
        routes: list[list[int]],
        replicas: int,
        cascade_depth: int,
        landing: Landing,
    ) -> None:
        """Put ``rows[i]`` on each posting of ``routes[i]``, then queue the
        splits of what overflowed; ``landing`` records what reached disk.

        Each destination gets one locked append of its rows in row order —
        what it would hold had the rows been appended one at a time — and
        the ``SplitJob``s are queued in the order those one-row appends
        would fire them. Rows whose every target vanished are routed again
        by ``replicas``, ``1 + max_reassign_retries`` attempts in all; a
        row left with no copy is the caller's error to raise.
        """
        n = len(rows.ids)
        landed, attempt = landing.landed, 0
        batch = range(n)
        if n and not routes[0]:
            # An empty index: the first row creates the first posting, the
            # one place the other rows can go.
            pid = self.posting_ids.next()
            landing.io_us += self.controller.create(pid, rows.select([0]))
            self.centroid_index.add(pid, rows.vectors[0])
            landed[0] = True
            landing.copies, landing.appends = 1, 1
            batch, routes = range(1, n), [[pid]] * n
        limit = self.config.max_posting_size
        while True:
            groups: dict[int, list[int]] = {}  # destination -> its rows, in order
            for row in batch:
                for pid in routes[row]:
                    groups.setdefault(pid, []).append(row)
            crossed, vanished = [], False
            for pid, group in groups.items():
                # A group that is the whole batch goes down uncopied.
                appended = self.append_rows(pid, rows if len(group) == n else rows.select(group))
                if appended is None:
                    vanished = True
                    continue
                step_us, length = appended
                landing.io_us += step_us
                landing.copies += len(group)
                landing.appends += 1
                for row in group:
                    landed[row] = True
                if self.config.enable_split and length > limit:
                    # The (row, rank) whose one-row append crossed the limit.
                    row = group[max(limit - (length - len(group)), 0)]
                    crossed.append((row, routes[row].index(pid), pid))
            for _, _, pid in sorted(crossed):
                self.job_queue.put(SplitJob(pid, cascade_depth))
            batch = [row for row in batch if not landed[row]] if vanished else ()
            if not batch or attempt == self.config.max_reassign_retries:
                return
            attempt += 1
            routes = dict(zip(batch, self.route_batch(rows.vectors[batch], replicas)))


class Updater:
    """Serves Insert and Delete, producing split jobs for the rebuilder."""

    def __init__(
        self,
        writer: PostingWriter,
        version_map: VersionMap,
        wal: WriteAheadLog | None = None,
        profiler: Profiler | None = None,
        fresh_tier: FreshTier | None = None,
    ) -> None:
        self.writer = writer
        self.version_map = version_map
        self.job_queue = writer.job_queue
        self.stats = writer.stats
        self.config = writer.config
        self.wal = wal
        self.profiler = profiler or NULL_PROFILER
        self.fresh_tier = fresh_tier
        # Foreground ops since the current fresh-tier batch started
        # buffering; drives the age-based flush trigger.
        self._fresh_age_ops = 0

    # ------------------------------------------------------------------
    def insert(self, vector_id: int, vector: np.ndarray, log: bool = True) -> float:
        """Insert a vector; returns the simulated foreground latency (us).

        An id the version map would refuse (negative, already live) is
        rejected before anything is logged. The vector is then logged
        (the WAL record *is* the ack), registered, and either buffered in
        the fresh tier — reaching disk via the next batch flush
        (docs/fresh-tier.md) — or landed on its nearest posting (plus
        boundary replicas when ``insert_replicas > 1``): a flush of one.
        """
        with self.profiler.section("update"):
            vector = as_vector(vector, self.config.dim)
            self.version_map.check_registrable(vector_id)
            if log and self.wal is not None:
                self.wal.log_insert(vector_id, vector)
            version = self.version_map.register(vector_id)
            if self.fresh_tier is not None:
                self._buffer(vector_id, vector, version)
                return FRESH_INSERT_CPU_US
            # PostingData.from_rows minus the checks as_vector already made.
            ids, versions = np.array([vector_id], np.int64), np.array([version], np.uint8)
            row = PostingData(ids, versions, vector[None])
            replicas = self.config.insert_replicas
            landing = Landing([False])
            self.writer.land(row, [self.writer.route(vector, replicas)], replicas, 0, landing)
            if not landing.copies:
                # Registered but never landed on disk: tombstone it so the
                # version map does not advertise a live id with zero
                # replicas (a conservation violation every audit and
                # future reassign would trip over).
                self.version_map.delete(vector_id)
                raise IndexError_(
                    f"insert of vector {vector_id} kept racing with posting splits"
                )
            self.stats.incr("inserts")
            self.stats.incr("appends", landing.copies)
            # One centroid navigation plus the appends' device time.
            return self.config.cpu_cost_per_query_us + landing.io_us

    def _buffer(self, vector_id: int, vector: np.ndarray, version: int) -> None:
        """Buffer a logged insert in the fresh tier; maybe request a flush."""
        self.fresh_tier.add(vector_id, vector, version)
        self.stats.incr("inserts")
        self.stats.incr("fresh_inserts")
        if len(self.fresh_tier) == 1:
            # A new batch starts buffering: restart its age clock.
            self._fresh_age_ops = 0
        if len(self.fresh_tier) >= self.config.fresh_flush_threshold:
            self.job_queue.put(FlushJob())
            self._fresh_age_ops = 0
        else:
            self._age_fresh_tier()

    def _age_fresh_tier(self) -> None:
        """Charge one foreground op against the buffered batch's age.

        With ``fresh_max_age_ops`` set, a batch that has been sitting
        through that many ops flushes even if it never reaches the size
        threshold — a trickle of inserts cannot stay buffered forever.
        """
        if self.fresh_tier is None or not len(self.fresh_tier):
            return
        self._fresh_age_ops += 1
        max_age = self.config.fresh_max_age_ops
        if max_age is not None and self._fresh_age_ops >= max_age:
            self.job_queue.put(FlushJob())
            self._fresh_age_ops = 0

    def delete(self, vector_id: int, log: bool = True) -> float:
        """Tombstone a vector; actual removal happens lazily during GC."""
        with self.profiler.section("update"):
            if log and self.wal is not None:
                self.wal.log_delete(vector_id)
            if self.version_map.delete(vector_id):
                self.stats.incr("deletes")
            # A buffered copy dies immediately: the tombstone already masks
            # any disk-resident duplicates of the same id.
            if self.fresh_tier is not None and self.fresh_tier.discard(vector_id):
                self.stats.incr("fresh_discards")
            # Deletes age any still-buffered batch toward its flush.
            self._age_fresh_tier()
            # Tombstones touch only the in-memory map: negligible latency.
            return 1.0
