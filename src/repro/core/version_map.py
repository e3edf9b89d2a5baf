"""Global in-memory version map (paper §4.1, §4.2.1).

One byte per vector: seven bits of reassign version plus one deletion bit.
The map answers three questions cheaply:

* is this on-disk replica *stale* (its stored version != current)?
* is this vector deleted (tombstone)?
* can this reassign proceed (compare-and-swap on the version bits)?

Vector ids index a dense array that doubles on demand, mirroring the
paper's dense in-memory layout (1 byte/vector → ~1 GB per billion vectors).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.util.errors import IndexError_

VERSION_MASK = 0x7F  # low 7 bits: reassign version
DELETED_BIT = 0x80  # high bit: tombstone

_UNREGISTERED = np.uint8(0xFF)  # sentinel: id never registered
# 0xFF has the deleted bit set and version 0x7F; registration always writes
# a value with version < 0x7F semantics intact, so the sentinel is safe to
# distinguish "never seen" from "deleted".


def _next_version(version: int) -> int:
    """Successor of a 7-bit version. 0x7F is skipped: a deleted vector at
    that version would collide with the 0xFF "unregistered" sentinel, so
    versions cycle through 127 values instead of 128."""
    return (version + 1) % VERSION_MASK


class VersionMap:
    """Dense vector-id → version byte map with CAS semantics."""

    def __init__(self, initial_capacity: int = 1024) -> None:
        if initial_capacity < 1:
            initial_capacity = 1
        self._lock = threading.RLock()
        self._bytes = np.full(initial_capacity, _UNREGISTERED, dtype=np.uint8)
        self._registered = 0
        self._deleted = 0

    # ------------------------------------------------------------------
    # capacity / registration
    # ------------------------------------------------------------------
    def _ensure_capacity(self, vector_id: int) -> None:
        if vector_id < len(self._bytes):
            return
        new_cap = len(self._bytes)
        while new_cap <= vector_id:
            new_cap *= 2
        grown = np.full(new_cap, _UNREGISTERED, dtype=np.uint8)
        grown[: len(self._bytes)] = self._bytes
        self._bytes = grown

    def register(self, vector_id: int) -> int:
        """Register a new (or re-inserted) vector; returns its version.

        A never-seen id starts at version 0. Re-registering a deleted id
        continues at the version after the tombstoned one: replicas of the
        earlier incarnation still on disk (and reassign rows still queued
        for it) carry an older version and stay dead, which a reset to 0
        would undo.
        """
        with self._lock:
            self.check_registrable(vector_id)
            self._ensure_capacity(vector_id)
            current = int(self._bytes[vector_id])
            if current == int(_UNREGISTERED):
                self._registered += 1
                version = 0
            else:
                self._deleted -= 1
                version = _next_version(current & VERSION_MASK)
            self._bytes[vector_id] = version
            return version

    def check_registrable(self, vector_id: int) -> None:
        """Raise unless :meth:`register` would accept the id right now (the
        Updater asks before it logs, so a rejected insert leaves no record)."""
        if vector_id < 0:
            raise IndexError_("vector ids must be non-negative")
        with self._lock:
            if vector_id < len(self._bytes) and not (
                int(self._bytes[vector_id]) & DELETED_BIT
            ):
                raise IndexError_(f"vector {vector_id} is already live")

    def is_registered(self, vector_id: int) -> bool:
        with self._lock:
            return (
                0 <= vector_id < len(self._bytes)
                and self._bytes[vector_id] != _UNREGISTERED
            )

    # ------------------------------------------------------------------
    # tombstones
    # ------------------------------------------------------------------
    def delete(self, vector_id: int) -> bool:
        """Set the tombstone bit; returns False if already deleted/unknown."""
        with self._lock:
            if not self.is_registered(vector_id):
                return False
            current = int(self._bytes[vector_id])
            if current & DELETED_BIT:
                return False
            self._bytes[vector_id] = np.uint8(current | DELETED_BIT)
            self._deleted += 1
            return True

    def is_deleted(self, vector_id: int) -> bool:
        with self._lock:
            if not self.is_registered(vector_id):
                return True
            return bool(int(self._bytes[vector_id]) & DELETED_BIT)

    # ------------------------------------------------------------------
    # versions
    # ------------------------------------------------------------------
    def current_version(self, vector_id: int) -> int:
        """Current 7-bit version, or -1 for unknown/unregistered ids."""
        with self._lock:
            if not self.is_registered(vector_id):
                return -1
            return int(self._bytes[vector_id]) & VERSION_MASK

    def is_live(self, vector_id: int, version: int) -> bool:
        """Scalar :meth:`live_mask`: registered, undeleted, at ``version``
        (a live byte *is* its 7-bit version, so one comparison decides)."""
        with self._lock:
            return (
                0 <= vector_id < len(self._bytes)
                and int(self._bytes[vector_id]) == version & VERSION_MASK
            )

    def cas_bump(self, vector_id: int, expected_version: int) -> int | None:
        """Atomically bump the version if it still equals ``expected``.

        Returns the new version on success, None on conflict (another
        reassign won the race, or the vector was deleted). This is the CAS
        the Local Rebuilder uses to serialize concurrent reassigns (§4.2.2).
        """
        new_version = _next_version(expected_version)
        if self.compare_and_set(vector_id, expected_version, new_version):
            return new_version
        return None

    def compare_and_set(self, vector_id: int, expected_version: int, version: int) -> bool:
        """Set a live vector's version iff it is at ``expected_version``.

        Besides the bump, this is how a reassign that bumped a vector and
        then failed to land any copy takes the bump back (new version ->
        the one its old replicas carry), so they are live again.
        """
        with self._lock:
            if not self.is_live(vector_id, expected_version):
                return False
            self._bytes[vector_id] = np.uint8(version & VERSION_MASK)
            return True

    # ------------------------------------------------------------------
    # batch filtering (search / GC hot path)
    # ------------------------------------------------------------------
    def live_mask(self, ids: np.ndarray, versions: np.ndarray) -> np.ndarray:
        """Vectorized: which on-disk entries are live (fresh and undeleted)?

        ``ids``/``versions`` come straight from decoded posting data. An
        entry is live iff the id is registered, undeleted, and its stored
        version equals the current version.
        """
        ids = np.asarray(ids, dtype=np.int64)
        versions = np.asarray(versions, dtype=np.uint8)
        with self._lock:
            if len(ids) == 0 or (ids.min() >= 0 and ids.max() < len(self._bytes)):
                # Decoded ids are essentially always in range: index directly.
                current = self._bytes[ids]
            else:
                in_range = ids >= 0
                in_range &= ids < len(self._bytes)
                current = np.full(len(ids), int(_UNREGISTERED), dtype=np.uint8)
                current[in_range] = self._bytes[ids[in_range]]
            # Reuse one mask buffer with in-place ANDs: this runs once per
            # probed posting, so the saved temporaries add up at scan time.
            live = current != _UNREGISTERED
            live &= (current & DELETED_BIT) == 0
            live &= (current & VERSION_MASK) == (versions & VERSION_MASK)
            return live

    def live_ids(self) -> np.ndarray:
        """All registered, undeleted vector ids (ascending).

        Used by the invariant checker to cross-reference the map against
        on-disk postings; O(capacity) vectorized scan, so intended for
        audits rather than hot paths.
        """
        with self._lock:
            known = self._bytes != _UNREGISTERED
            undeleted = (self._bytes & DELETED_BIT) == 0
            return np.nonzero(known & undeleted)[0].astype(np.int64)

    # ------------------------------------------------------------------
    # accounting / snapshots
    # ------------------------------------------------------------------
    @property
    def live_count(self) -> int:
        with self._lock:
            return self._registered - self._deleted

    @property
    def deleted_count(self) -> int:
        with self._lock:
            return self._deleted

    def memory_bytes(self) -> int:
        with self._lock:
            return int(self._bytes.nbytes)

    def state_dict(self) -> dict:
        with self._lock:
            return {
                "bytes": self._bytes.copy(),
                "registered": self._registered,
                "deleted": self._deleted,
            }

    def load_state_dict(self, state: dict) -> None:
        with self._lock:
            self._bytes = np.asarray(state["bytes"], dtype=np.uint8).copy()
            self._registered = int(state["registered"])
            self._deleted = int(state["deleted"])
