"""In-memory fresh tier: the LSM-style write buffer for recent vectors.

SPFresh's Updater pays a posting append — a read-modify-write of the tail
block — on *every* insert, which is exactly what an insert storm punishes.
LSM-VEC and FreshDiskANN (PAPERS.md) absorb fresh vectors into a small
in-memory tier instead: inserts land in RAM, queries scan the tier
alongside the disk index with an exact top-k merge, and a background flush
batch-appends the accumulated vectors to their postings so the tail-block
rewrite (and the LIRE rebalancing it triggers) is paid once per flush
rather than once per insert.

Durability does not live here: the WAL logs every insert *before* it
enters the tier, so acked tier contents replay from the WAL on recovery
(see ``repro.core.recovery``). The tier itself is just a dense matrix of
``(id, version, vector)`` rows with O(1) insert/discard (swap-with-last)
and brute-force scans through the same kernels the disk searcher uses —
``sq_l2_batch`` per query, ``pairwise_sq_l2_exact`` per batch — so merged
results are bit-identical to an index where the vectors had been flushed
eagerly (hypothesis-pinned in ``tests/test_fresh_tier.py``).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.util.distance import as_vector

_MIN_CAPACITY = 16


class FreshTier:
    """Dense in-memory buffer of recently inserted vectors.

    Rows are stored in three parallel arrays (ids, versions, matrix) kept
    compact by swap-with-last removal, so the scan path always sees one
    contiguous float32 matrix. All mutators and snapshot readers hold the
    tier lock; searches operate on snapshot copies and never block writers.
    """

    def __init__(self, dim: int, version_map=None) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.version_map = version_map
        self._lock = threading.RLock()
        self._row_of: dict[int, int] = {}
        self._ids = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._versions = np.empty(_MIN_CAPACITY, dtype=np.uint8)
        self._matrix = np.empty((_MIN_CAPACITY, self.dim), dtype=np.float32)
        self._size = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _grow_to(self, capacity: int) -> None:
        new_cap = max(_MIN_CAPACITY, len(self._ids))
        while new_cap < capacity:
            new_cap *= 2
        if new_cap == len(self._ids):
            return
        for name in ("_ids", "_versions", "_matrix"):
            old = getattr(self, name)
            shape = (new_cap,) + old.shape[1:]
            grown = np.empty(shape, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)

    def add(self, vector_id: int, vector: np.ndarray, version: int) -> None:
        """Buffer one vector (overwriting any previous row for the id)."""
        vector = as_vector(vector, self.dim)
        with self._lock:
            row = self._row_of.get(vector_id)
            if row is None:
                self._grow_to(self._size + 1)
                row = self._size
                self._size += 1
                self._row_of[vector_id] = row
                self._ids[row] = vector_id
            self._versions[row] = np.uint8(version)
            self._matrix[row] = vector

    def discard(self, vector_id: int) -> bool:
        """Drop the id's row if buffered; returns whether one existed."""
        with self._lock:
            row = self._row_of.pop(vector_id, None)
            if row is None:
                return False
            last = self._size - 1
            if row != last:
                moved = int(self._ids[last])
                self._ids[row] = self._ids[last]
                self._versions[row] = self._versions[last]
                self._matrix[row] = self._matrix[last]
                self._row_of[moved] = row
            self._size = last
            return True

    def clear(self) -> None:
        with self._lock:
            self._row_of.clear()
            self._size = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return self._size

    def __contains__(self, vector_id: int) -> bool:
        with self._lock:
            return vector_id in self._row_of

    def version_of(self, vector_id: int) -> int | None:
        with self._lock:
            row = self._row_of.get(vector_id)
            return None if row is None else int(self._versions[row])

    def memory_bytes(self) -> int:
        """Modelled DRAM footprint of the buffered rows (capacity-based)."""
        with self._lock:
            return int(
                self._ids.nbytes + self._versions.nbytes + self._matrix.nbytes
            )

    # ------------------------------------------------------------------
    # snapshots (search + flush + audit)
    # ------------------------------------------------------------------
    def entries(
        self, limit: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of (ids, versions, matrix) for the first ``limit``
        buffered rows (default: all), in array order.

        Nothing is removed: a flush discards each id only after its copy
        has durably landed in a posting, so a crash mid-flush never loses
        a buffered vector (the WAL replays it either way).
        """
        with self._lock:
            n = self._size if limit is None else min(self._size, limit)
            return (
                self._ids[:n].copy(),
                self._versions[:n].copy(),
                self._matrix[:n].copy(),
            )

    take = entries  # the flush's name for its bounded column snapshot

    def live_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, matrix) of rows that are still live per the version map.

        The tier discards rows on delete, so in the steady state every row
        is live; the mask only bites in the window between a concurrent
        delete's tombstone landing and its ``discard`` call.
        """
        ids, versions, matrix = self.entries()
        if self.version_map is None or len(ids) == 0:
            return ids, matrix
        mask = self.version_map.live_mask(ids, versions)
        if mask.all():
            return ids, matrix
        return ids[mask], matrix[mask]
