"""Background Local Rebuilder: split, merge, reassign, flush (paper §4.2).

The rebuilder consumes jobs from the shared queue and executes the
internal LIRE operators with posting-level locking and version-map CAS:

* **split** — GC the oversized posting; if still oversized, run balanced
  2-means, install the two new postings + centroids, drop the old one, and
  collect reassign candidates via the two necessary conditions (§3.3);
* **merge** — fold an undersized posting into its nearest neighbor and
  reassign the moved vectors (no neighbor-range check needed, §4.2.1);
* **reassign** — one job per split (or merge) carries all its candidates:
  each distinct vector is routed once, each row is re-validated on its
  own, in row order (discard false positives — the NPA check against the
  row's own source posting — then CAS-bump the version, so all stale
  replicas die), and the moved rows land; a bumped row that lands nowhere
  gets its bump back. Background workers take the job one row at a time,
  so each row is routed after the splits the rows before it queued;
* **flush** — route the fresh tier's live rows in one batch and land them
  as direct inserts taken in nearest-posting order would
  (docs/fresh-tier.md).

A split installs whole new postings itself; every other copy is routed by
its caller and landed by :meth:`~repro.core.updater.PostingWriter.land`.
Jobs can run inline (synchronous mode, deterministic — the default for
tests) or on background worker threads (the paper's two-stage pipeline).
"""

from __future__ import annotations

import queue
import threading

import numpy as np

from repro.clustering.balanced import split_in_two
from repro.core.conditions import condition_one_mask, condition_two_mask
from repro.core.fresh_tier import FreshTier
from repro.core.jobs import FlushJob, MergeJob, ReassignJob, SplitJob
from repro.core.updater import Landing, PostingWriter
from repro.core.version_map import VersionMap
from repro.spann.postings import live_view
from repro.storage.layout import PostingData
from repro.util.errors import IndexError_


class LocalRebuilder:
    """Executes LIRE's internal operators off the update critical path."""

    def __init__(
        self,
        writer: PostingWriter,
        version_map: VersionMap,
        rng: np.random.Generator | None = None,
        fresh_tier: FreshTier | None = None,
    ) -> None:
        # Locks, queue, device and counters must be the write path's own
        # (a split has to exclude the appends the writer makes), so they
        # are read off the writer rather than wired in a second time.
        self.writer = writer
        self.centroid_index = writer.centroid_index
        self.controller = writer.controller
        self.locks = writer.locks
        self.job_queue = writer.job_queue
        self.stats = writer.stats
        self.config = writer.config
        self.posting_ids = writer.posting_ids
        self.version_map = version_map
        self.rng = rng or np.random.default_rng(self.config.seed + 1)
        self.fresh_tier = fresh_tier
        self.background_io_us = 0.0  # simulated device time spent by rebuilds
        self.io_by_job = {
            "split": 0.0,
            "merge": 0.0,
            "reassign": 0.0,
            "flush": 0.0,
            "other": 0.0,
        }
        self._current_job_kind = "other"
        self._workers: list[threading.Thread] = []
        self._stop = threading.Event()
        # Exceptions that escaped a background job. A worker that died on
        # an unhandled error would silently shrink pipeline capacity, so
        # the loop records the failure and keeps serving the queue; the
        # stress harness asserts this list stays empty.
        self.worker_errors: list[BaseException] = []

    # ------------------------------------------------------------------
    # job dispatch
    # ------------------------------------------------------------------
    def process(self, job: object) -> None:
        before = self.background_io_us
        if isinstance(job, SplitJob):
            self._current_job_kind = "split"
            self._run_split(job)
        elif isinstance(job, MergeJob):
            self._current_job_kind = "merge"
            self._run_merge(job)
        elif isinstance(job, ReassignJob):
            self._current_job_kind = "reassign"
            self._run_reassign(job)
        elif isinstance(job, FlushJob):
            self._current_job_kind = "flush"
            self._run_flush(job)
        else:
            raise IndexError_(f"unknown rebuild job type: {type(job).__name__}")
        self.io_by_job[self._current_job_kind] += self.background_io_us - before
        self._current_job_kind = "other"

    def drain(self, max_jobs: int | None = None) -> int:
        """Synchronously run queued jobs (and their cascades) to exhaustion.

        Returns the number of jobs executed. ``max_jobs`` bounds runaway
        cascades in adversarial tests; normal operation always converges
        (paper §3.4) because every split grows the centroid set by one.
        """
        executed = 0
        while max_jobs is None or executed < max_jobs:
            try:
                job = self.job_queue.get()
            except queue.Empty:
                break
            try:
                self.process(job)
            finally:
                self.job_queue.task_done()
            executed += 1
        return executed

    # ------------------------------------------------------------------
    # background workers
    # ------------------------------------------------------------------
    def start(self, num_workers: int | None = None) -> None:
        """Spawn background worker threads (paper's pipeline stage two)."""
        if self._workers:
            return
        self._stop.clear()
        count = num_workers or self.config.background_workers
        for i in range(count):
            worker = threading.Thread(
                target=self._worker_loop, name=f"local-rebuilder-{i}", daemon=True
            )
            worker.start()
            self._workers.append(worker)

    def stop(self) -> None:
        self._stop.set()
        for worker in self._workers:
            worker.join()
        self._workers.clear()

    def wait_idle(self) -> None:
        """Block until every queued job (and cascades) has completed."""
        self.job_queue.join()

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job = self.job_queue.get(timeout=0.02, block=True)
            except queue.Empty:
                continue
            try:
                self.process(job)
            except Exception as exc:  # noqa: BLE001 — keep the worker alive
                self.worker_errors.append(exc)
                self.stats.incr("worker_errors")
            finally:
                self.job_queue.task_done()

    # ------------------------------------------------------------------
    # split
    # ------------------------------------------------------------------
    def _run_split(self, job: SplitJob) -> None:
        pid = job.posting_id
        self.stats.incr("split_jobs")
        with self.locks.hold(pid):
            if not self.controller.exists(pid) or pid not in self.centroid_index:
                return  # raced with another split/merge; nothing to do
            data, io_us = self.controller.get(pid)
            self.background_io_us += io_us
            live = live_view(data, self.version_map)
            if len(live) <= self.config.max_posting_size:
                # Garbage collection alone fixed the length (paper §4.2.1).
                if len(live) < len(data):
                    self.background_io_us += self.controller.put(pid, live)
                    self.stats.incr("gc_writebacks")
                return
            old_centroid = self.centroid_index.get(pid)
            new_centroids, assignments = split_in_two(
                live.vectors,
                self.rng,
                balance_weight=self.config.balance_weight,
            )
            parts = [live.select(assignments == j) for j in (0, 1)]
            new_pids = [self.posting_ids.next(), self.posting_ids.next()]
            for new_pid, part in zip(new_pids, parts):
                self.background_io_us += self.controller.create(new_pid, part)
            for new_pid, centroid in zip(new_pids, new_centroids):
                self.centroid_index.add(new_pid, centroid)
            self.centroid_index.remove(pid)
            self.controller.delete(pid)
        self.locks.forget(pid)
        self.stats.incr("splits")
        self.stats.observe_cascade_depth(job.cascade_depth + 1)
        # A GC'd posting can still be far over the limit (bulk appends
        # before the job ran, or a replica-heavy build); halves that
        # remain oversized cascade into further splits.
        for new_pid, part in zip(new_pids, parts):
            if len(part) > self.config.max_posting_size:
                self.job_queue.put(SplitJob(new_pid, job.cascade_depth + 1))
        if self.config.enable_reassign:
            self._collect_split_reassigns(old_centroid, new_centroids, new_pids, parts)

    def _collect_split_reassigns(
        self,
        old_centroid: np.ndarray,
        new_centroids: np.ndarray,
        new_pids: list[int],
        parts: list[PostingData],
    ) -> None:
        """Apply the two necessary conditions; queue what they select as
        ONE job (half 0, half 1, then each neighbour in read order)."""
        candidates: list[tuple[PostingData, np.ndarray, int]] = []
        # Condition 1: vectors inside the split postings (Eq. 1).
        for new_pid, part in zip(new_pids, parts):
            if len(part) == 0:
                continue
            self.stats.incr("reassign_evaluated", len(part))
            mask = condition_one_mask(part.vectors, old_centroid, new_centroids)
            candidates.append((part, mask, new_pid))
        # Condition 2: vectors in nearby postings (Eq. 2).
        neighbor_pids: list[int] = []
        if self.config.reassign_range > 0:
            hits = self.centroid_index.search(
                old_centroid, self.config.reassign_range + len(new_pids)
            )
            neighbor_pids = [
                int(p) for p in hits.posting_ids if int(p) not in new_pids
            ][: self.config.reassign_range]
        if neighbor_pids:
            postings, io_us = self.controller.parallel_get(neighbor_pids)
            self.background_io_us += io_us
            for neighbor_pid, data in postings.items():
                live = live_view(data, self.version_map)
                if len(live) == 0:
                    continue
                self.stats.incr("reassign_evaluated", len(live))
                mask = condition_two_mask(live.vectors, old_centroid, new_centroids)
                candidates.append((live, mask, neighbor_pid))
        self._queue_reassign(candidates)

    def _queue_reassign(
        self, candidates: list[tuple[PostingData, np.ndarray, int]]
    ) -> None:
        """Queue the masked rows of ``[(rows, mask, the posting they were
        read from), ...]`` that are still the live copy as ONE job, in the
        order given; nothing live to move queues nothing."""
        kept, sources = [], []
        for data, mask, source in candidates:
            rows = np.flatnonzero(mask)
            # A stale replica is skipped: the live copy is elsewhere.
            rows = rows[self.version_map.live_mask(data.ids[rows], data.versions[rows])]
            kept.append(data.select(rows))
            sources.append(np.full(len(rows), source, dtype=np.int64))
        total = sum(map(len, kept))
        if total == 0:
            return
        self.stats.incr("reassign_scheduled", total)
        self.job_queue.put(
            ReassignJob(
                vector_ids=np.concatenate([rows.ids for rows in kept]),
                vectors=np.concatenate([rows.vectors for rows in kept]),
                expected_versions=np.concatenate([rows.versions for rows in kept]),
                source_postings=np.concatenate(sources),
            )
        )

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def _run_merge(self, job: MergeJob) -> None:
        pid = job.posting_id
        self.stats.incr("merge_jobs")
        target = self._pick_merge_target(pid)
        if target is None:
            return
        with self.locks.hold(pid, target):
            if not (self.controller.exists(pid) and self.controller.exists(target)):
                return
            if pid not in self.centroid_index or target not in self.centroid_index:
                return
            data, io_us = self.controller.get(pid)
            self.background_io_us += io_us
            live = live_view(data, self.version_map)
            if len(live) >= self.config.min_posting_size:
                return  # grew back; merge no longer needed
            if len(live) > 0:
                # The target exists and its lock is held, so this lands.
                landing = Landing([False] * len(live))
                self.writer.land(live, [[target]] * len(live), 1, 0, landing)
                self.background_io_us += landing.io_us
            self.controller.delete(pid)
            self.centroid_index.remove(pid)
        self.locks.forget(pid)
        self.stats.incr("merges")
        if self.config.enable_reassign and len(live) > 0:
            # The deleted centroid may break NPA for the moved vectors only
            # (paper §3.3: merged postings need no neighbor check).
            self.stats.incr("reassign_evaluated", len(live))
            mask = np.ones(len(live), dtype=bool)
            self._queue_reassign([(live, mask, target)])

    def _pick_merge_target(self, pid: int) -> int | None:
        """Nearest other posting, by centroid distance."""
        if pid not in self.centroid_index:
            return None
        try:
            centroid = self.centroid_index.get(pid)
        except IndexError_:
            return None
        hits = self.centroid_index.search(centroid, 4)
        for candidate in hits.posting_ids:
            if int(candidate) != pid:
                return int(candidate)
        return None

    # ------------------------------------------------------------------
    # reassign
    # ------------------------------------------------------------------
    def _run_reassign(self, job: ReassignJob) -> None:
        """Run one batch: drop the rows that went stale while queued, then
        move the survivors — all at once inline, one still-live row at a
        time on background workers."""
        ids, versions = job.vector_ids, job.expected_versions
        live = self.version_map.live_mask(ids, versions)
        self.stats.incr("reassign_aborted_version", len(live) - int(live.sum()))
        rows = np.flatnonzero(live)
        if len(rows) == 0:
            return
        # The job's rows at the versions they are bumped to.
        moved = PostingData(ids, np.array(versions, dtype=np.uint8), job.vectors)
        # Inline, nothing runs between two rows of a job, so one pass lands
        # what row-at-a-time moves would, with one append per destination.
        if not self._workers:
            self._move_rows(job, rows, moved)
            return
        # On background workers the other workers split while the job
        # runs. One pass would route every row before those splits and
        # hold back the splits its own appends trigger until the job ends;
        # row at a time, each row is routed after the splits its
        # predecessors queued (§4.2). docs/lire-protocol.md "Background
        # workers" has the measurements. A row an earlier row moved (its
        # id's other replica) is dropped before it is routed.
        for row in rows.tolist():
            if self.version_map.is_live(int(ids[row]), int(versions[row])):
                self._move_rows(job, np.array([row]), moved)
            else:
                self.stats.incr("reassign_aborted_version")

    def _move_rows(self, job: ReassignJob, rows: np.ndarray, moved: PostingData) -> None:
        """Route each distinct id of ``rows`` once, re-validate the rows one
        by one in row order, then land what moved with one append per
        destination; ``moved.versions`` takes the bumped versions."""
        ids, versions = job.vector_ids, job.expected_versions
        # Re-apply the build's closure rule so a reassigned vector keeps
        # the same boundary-replica structure it had before the move. One
        # vector's replicas arrive as several rows; it is routed once, and
        # all routing is done before the first CAS below.
        replicas = self.config.reassign_replicas
        _, first, route_of = np.unique(
            ids[rows], return_index=True, return_inverse=True
        )
        routes = self.writer.route_batch(job.vectors[rows[first]], replicas)
        bumped: list[int] = []
        targets_of: list[list[int]] = []
        for row, route in zip(rows.tolist(), route_of.tolist()):
            vid, expected = int(ids[row]), int(versions[row])
            # Re-checked per row: an earlier row of the same batch may have
            # moved this id (its replicas are rows of one job).
            if not self.version_map.is_live(vid, expected):
                self.stats.incr("reassign_aborted_version")
                continue
            targets = routes[route]
            if not targets:
                continue
            if targets[0] == job.source_postings[row]:
                # False positive: this copy already sits in its nearest posting.
                self.stats.incr("reassign_aborted_npa")
                continue
            new_version = self.version_map.cas_bump(vid, expected)
            if new_version is None:
                self.stats.incr("reassign_aborted_version")
                continue
            moved.versions[row] = new_version
            bumped.append(row)
            targets_of.append(targets)
        landing = Landing([False] * len(bumped))
        landed = landing.landed  # bumped rows with a copy on disk
        try:
            # A split these appends cause cascades from the split (or
            # merge) that queued the rows: depth 1.
            self.writer.land(moved.select(bumped), targets_of, replicas, 1, landing)
            if not all(landed):
                vid = ids[bumped[landed.index(False)]]
                raise IndexError_(f"reassign of vector {vid} could not place a copy anywhere")
        finally:
            self.background_io_us += landing.io_us
            # A bumped row that landed nowhere (the device refused the
            # append, every attempt lost its posting) takes its bump back:
            # the old replicas are live again instead of the vector lost.
            for row, ok in zip(bumped, landed):
                if not ok:
                    self.version_map.compare_and_set(
                        int(ids[row]), int(moved.versions[row]), int(versions[row])
                    )
            self.stats.incr("reassign_executed", sum(landed))

    # ------------------------------------------------------------------
    # flush (fresh tier → postings, docs/fresh-tier.md)
    # ------------------------------------------------------------------
    def _run_flush(self, job: FlushJob) -> None:
        """Land buffered fresh-tier vectors as direct inserts of the same
        rows, taken in posting order, would (no drain between them), but
        with ONE tail-block read-modify-write per destination posting per
        flush — the write-amplification win over per-insert appends. A
        tier row is discarded only after its copy durably landed; a crash
        mid-flush therefore loses nothing (the WAL replays the tier)."""
        tier = self.fresh_tier
        if tier is None:
            return
        self.stats.incr("fresh_flush_jobs")
        ids, versions, matrix = tier.take(job.max_vectors)
        live = self.version_map.live_mask(ids, versions)
        for vid in ids[~live].tolist():
            tier.discard(vid)  # deleted rows never reach disk
        if not live.any():
            return
        replicas = self.config.insert_replicas
        routes = self.writer.route_batch(matrix[live], replicas)
        # Rows stably by nearest posting: the nearest postings are appended
        # to, and their splits queued, in posting-id order.
        order = sorted(range(len(routes)), key=lambda row: routes[row][:1])
        rows = PostingData(ids, versions, matrix).select(np.flatnonzero(live)[order])
        landing = Landing([False] * len(rows))
        landed = landing.landed  # rows with a copy on disk
        try:
            self.writer.land(rows, [routes[row] for row in order], replicas, 0, landing)
        finally:
            for vid in rows.ids[landed].tolist():
                tier.discard(vid)
            # Counted as it reached disk, also when an append raised.
            self.background_io_us += landing.io_us
            self.stats.incr("appends", landing.copies)
            self.stats.incr("fresh_flush_appends", landing.appends)
            flushed = sum(landed)
            if flushed:
                self.stats.incr("fresh_flushes")
                self.stats.incr("fresh_flushed_vectors", flushed)
        if flushed < len(rows):
            # Still buffered, so still acked (and still in the WAL).
            vid = rows.ids[landed.index(False)]
            raise IndexError_(f"flush of vector {vid} kept racing with posting splits")

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc_posting(self, pid: int) -> bool:
        """Rewrite one posting without its dead entries; True if rewritten.

        Read, mask and write-back all happen under the posting lock, so an
        append can land before or after the rewrite but never inside it.
        """
        with self.locks.hold(pid):
            if not self.controller.exists(pid):
                return False
            data, io_us = self.controller.get(pid)
            self.background_io_us += io_us
            live = live_view(data, self.version_map)
            if len(live) == len(data):
                return False
            self.background_io_us += self.controller.put(pid, live)
            self.stats.incr("gc_writebacks")
            return True
