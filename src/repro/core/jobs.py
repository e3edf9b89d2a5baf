"""Job types and queue for the Local Rebuilder pipeline (paper §4.2).

The foreground Updater produces jobs; background rebuild threads consume
them. Jobs carry everything needed to execute without re-reading foreground
state, except data that must be re-validated at execution time (posting
contents, vector versions) — re-validation is what makes the pipeline safe
under concurrency. A split or merge queues all its reassign candidates as
one :class:`ReassignJob` (row ``i`` knows the posting it was read from).

Both the queue and the lock manager accept an optional ``chaos`` hook — a
callable ``chaos(point: str, detail: int | None)`` invoked at the
scheduling boundaries where thread interleavings matter (job dequeue, lock
acquisition). The stress harness (``repro.bench.stress``) installs a
seeded schedule there to force adversarial yields; production leaves it
``None`` and pays only an attribute check.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ChaosHook = Optional[Callable[[str, Optional[int]], None]]


@dataclass(frozen=True)
class SplitJob:
    """Garbage-collect and, if still oversized, split a posting."""

    posting_id: int
    cascade_depth: int = 0


@dataclass(frozen=True)
class MergeJob:
    """Merge an undersized posting into its nearest neighbor."""

    posting_id: int


@dataclass(frozen=True)
class ReassignJob:
    """Re-evaluate the posting assignment of one split's (or merge's) candidates.

    One job is the batch one split or merge collected: row ``i`` is vector
    ``vector_ids[i]`` with payload ``vectors[i]``, observed at
    ``expected_versions[i]`` in posting ``source_postings[i]`` when the
    candidate was collected (one id can arrive from several sources — its
    replicas). At execution time each distinct id is routed once, then the
    rows are re-validated one by one, in row order; the CAS against the
    version map aborts a row whose vector was concurrently reassigned or
    deleted, or already moved by an earlier row of the same job.
    """

    vector_ids: np.ndarray
    vectors: np.ndarray
    expected_versions: np.ndarray
    source_postings: np.ndarray


@dataclass(frozen=True)
class FlushJob:
    """Drain the in-memory fresh tier into postings (docs/fresh-tier.md).

    ``max_vectors`` bounds one flush (None drains the whole tier); tests
    use it to park the index in a mid-flush state. The job snapshots the
    tier at execution time, so one pending job absorbs any number of
    inserts that arrive before it runs — hence the single-flag dedup.
    """

    max_vectors: int | None = None


RebuildJob = object  # union alias for documentation purposes


class JobQueue:
    """FIFO of rebuild jobs with pending-count tracking and dedup.

    ``task_done``/``join`` semantics follow :class:`queue.Queue` so the
    synchronous driver can wait for full drain including cascades.

    Split and merge jobs are deduplicated by posting id: only one pending
    job per (kind, posting) is ever useful because the job re-reads the
    posting at execution time and handles all accumulated change at once.
    The marker is cleared at dequeue so events landing *while* the job runs
    can schedule a fresh one.
    """

    def __init__(self, chaos: ChaosHook = None) -> None:
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._pending_splits: set[int] = set()
        self._pending_merges: set[int] = set()
        self._flush_pending = False
        self._dedup_lock = threading.Lock()
        self.chaos: ChaosHook = chaos

    def put(self, job: object) -> bool:
        """Enqueue a job; returns False if dedup dropped it as redundant."""
        if isinstance(job, SplitJob):
            with self._dedup_lock:
                if job.posting_id in self._pending_splits:
                    return False
                self._pending_splits.add(job.posting_id)
        elif isinstance(job, MergeJob):
            # Every search probing the same undersized posting reports it
            # again; without dedup each report enqueued another merge job.
            with self._dedup_lock:
                if job.posting_id in self._pending_merges:
                    return False
                self._pending_merges.add(job.posting_id)
        elif isinstance(job, FlushJob):
            # Every insert past the tier threshold re-requests a flush; one
            # pending job drains everything buffered when it runs.
            with self._dedup_lock:
                if self._flush_pending:
                    return False
                self._flush_pending = True
        self._queue.put(job)
        return True

    def get(self, timeout: float | None = None, *, block: bool = False) -> object:
        """Dequeue one job, raising :class:`queue.Empty` when none is ready.

        Blocking is explicit: ``block=False`` (the default) never waits,
        regardless of ``timeout``; ``block=True`` waits up to ``timeout``
        seconds, or forever when ``timeout`` is None. (The previous
        implementation inferred blocking from the truthiness of ``timeout``,
        so ``get(timeout=0)`` silently became non-blocking and
        ``get(timeout=None)`` could never block.)
        """
        chaos = self.chaos
        if chaos is not None:
            chaos("queue.get", None)
        if block:
            job = self._queue.get(block=True, timeout=timeout)
        else:
            job = self._queue.get_nowait()
        if isinstance(job, SplitJob):
            with self._dedup_lock:
                self._pending_splits.discard(job.posting_id)
        elif isinstance(job, MergeJob):
            with self._dedup_lock:
                self._pending_merges.discard(job.posting_id)
        elif isinstance(job, FlushJob):
            with self._dedup_lock:
                self._flush_pending = False
        if chaos is not None:
            chaos("queue.got", getattr(job, "posting_id", None))
        return job

    def task_done(self) -> None:
        self._queue.task_done()

    def join(self) -> None:
        self._queue.join()

    @property
    def pending(self) -> int:
        return self._queue.qsize()

    def empty(self) -> bool:
        return self._queue.empty()


class _LockEntry:
    """One posting's lock plus the bookkeeping that keeps it alive.

    ``refs`` counts threads currently inside :meth:`PostingLockManager.hold`
    for this posting (blocked or holding). ``retired`` marks the posting as
    deleted; the entry is physically dropped only when the last reference
    goes away, so every contender observes the *same* lock object for the
    posting's entire lifetime.
    """

    __slots__ = ("lock", "refs", "retired")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.refs = 0
        self.retired = False


class PostingLockManager:
    """Fine-grained posting-level write locks (paper §4.2.2).

    Append, split, and merge serialize per posting; reads stay lock-free.
    ``hold`` acquires multiple locks in sorted id order to avoid deadlock
    between concurrent merges touching overlapping postings.

    Lock entries are refcounted. A naive ``dict[pid, RLock]`` with
    ``forget`` popping the entry has a lifecycle race: thread A holds the
    lock, thread B is blocked on the same lock object, ``forget`` drops the
    dict entry, and thread C then mints a *fresh* lock for the same posting
    id — C and A (or C and B) now run "mutually excluded" critical sections
    concurrently. Here ``forget`` only marks the entry retired; the entry
    is recycled when the reference count reaches zero, so all contenders
    for a posting id always share one lock object.
    """

    def __init__(self, stats=None, chaos: ChaosHook = None) -> None:
        self._meta = threading.Lock()
        self._locks: dict[int, _LockEntry] = {}
        self.stats = stats
        self.chaos: ChaosHook = chaos
        self.contention_checks = 0
        self.contention_hits = 0
        self.lock_recycles = 0

    # ------------------------------------------------------------------
    # entry lifecycle
    # ------------------------------------------------------------------
    def _pin(self, posting_id: int) -> _LockEntry:
        """Look up (or create) the entry and take a reference on it."""
        with self._meta:
            entry = self._locks.get(posting_id)
            if entry is None:
                entry = _LockEntry()
                self._locks[posting_id] = entry
            entry.refs += 1
            return entry

    def _unpin(self, posting_id: int, entry: _LockEntry) -> None:
        """Drop a reference; recycle the entry if it was the last one."""
        with self._meta:
            entry.refs -= 1
            if (
                entry.refs == 0
                and entry.retired
                and self._locks.get(posting_id) is entry
            ):
                del self._locks[posting_id]
                self._count_recycle()

    def _count_recycle(self) -> None:
        self.lock_recycles += 1
        if self.stats is not None:
            self.stats.incr("lock_recycles")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @contextmanager
    def hold(self, *posting_ids: int):
        ordered = sorted(set(posting_ids))
        chaos = self.chaos
        pinned = [(pid, self._pin(pid)) for pid in ordered]
        acquired: list[_LockEntry] = []
        try:
            for pid, entry in pinned:
                if chaos is not None:
                    chaos("lock.acquire", pid)
                self.contention_checks += 1
                if not entry.lock.acquire(blocking=False):
                    self.contention_hits += 1
                    entry.lock.acquire()
                acquired.append(entry)
                if chaos is not None:
                    chaos("lock.acquired", pid)
            yield
        finally:
            for entry in reversed(acquired):
                entry.lock.release()
            for pid, entry in pinned:
                self._unpin(pid, entry)

    def forget(self, posting_id: int) -> None:
        """Retire the lock of a deleted posting (bounds memory).

        The entry is dropped immediately only if no thread references it;
        otherwise the last contender to leave :meth:`hold` recycles it.
        Posting ids are never reused, so a retired-but-referenced entry
        staying in the table cannot collide with a future posting.
        """
        with self._meta:
            entry = self._locks.get(posting_id)
            if entry is None:
                return
            entry.retired = True
            if entry.refs == 0:
                del self._locks[posting_id]
                self._count_recycle()

    @property
    def live_locks(self) -> int:
        """Number of lock entries currently in the table (for tests/stats)."""
        with self._meta:
            return len(self._locks)

    @property
    def contention_rate(self) -> float:
        if self.contention_checks == 0:
            return 0.0
        return self.contention_hits / self.contention_checks
