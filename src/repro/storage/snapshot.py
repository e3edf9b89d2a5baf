"""Snapshot manager (paper §4.4).

A snapshot captures the in-memory index state (centroid index, version map,
block mapping + free pool). The on-disk posting blocks themselves do not
need copying because the Block Controller's copy-on-write block allocation
plus the pre-release buffer keeps every block referenced by the last
snapshot intact until the *next* snapshot lands.

Snapshots are written atomically (tmp file + rename) and versioned by a
monotonically increasing generation number. Every snapshot carries an
integrity footer — ``magic | crc32(payload) | len(payload)`` — so a torn
or bit-flipped snapshot is *detected* at load time (raising
:class:`~repro.util.errors.RecoveryError`) instead of being unpickled into
silently wrong index state.

Fault injection: a :class:`~repro.storage.faults.FaultPlan` passed as
``faults`` can tear the temp-file write, crash before or after the atomic
rename, or publish a torn blob — the crash matrix uses these to verify
that the previous snapshot plus the un-truncated WAL always recover.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import zlib

from repro.util.errors import CrashPoint, RecoveryError

_SNAPSHOT_NAME = "index.snapshot"
_FOOTER = struct.Struct("<4sII")  # magic, crc32(payload), len(payload)
_FOOTER_MAGIC = b"SPF1"


def _seal(payload: bytes) -> bytes:
    """Append the integrity footer to a pickled snapshot payload."""
    return payload + _FOOTER.pack(
        _FOOTER_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
    )


def _unseal(raw: bytes, origin: str) -> dict:
    """Verify the footer and unpickle; raises RecoveryError on any damage."""
    if len(raw) < _FOOTER.size:
        raise RecoveryError(
            f"snapshot at {origin} is {len(raw)} bytes — too short to hold "
            "an integrity footer; treating as corrupt"
        )
    magic, crc, length = _FOOTER.unpack(raw[-_FOOTER.size :])
    payload = raw[: -_FOOTER.size]
    if magic != _FOOTER_MAGIC:
        raise RecoveryError(
            f"snapshot at {origin} has no integrity footer (bad magic); "
            "refusing to load unverifiable state"
        )
    if length != len(payload) or zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise RecoveryError(
            f"snapshot at {origin} failed its integrity check "
            f"(footer says {length} bytes, found {len(payload)}); "
            "torn or corrupt snapshot"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise RecoveryError(f"cannot decode snapshot at {origin}: {exc}") from exc


class SnapshotManager:
    """Persists and restores index state dictionaries.

    ``directory=None`` keeps snapshots in memory, which is enough for the
    crash-injection tests that tear down the index object but not the
    process; a ``directory`` keeps them in a file there that a restarted
    process reopens. One save / load flow serves both media: the only
    medium-specific steps are :meth:`_publish` (a memory slot, or a temp
    file plus ``os.replace``) and :meth:`export_blob` (reading it back).
    """

    def __init__(self, directory: str | None = None, faults=None) -> None:
        self.directory = directory
        self.faults = faults
        self.generation = 0
        self._memory_snapshot: bytes | None = None
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self.load()

    def _origin(self) -> str:
        if self.directory is None:
            return "<memory>"
        return os.path.join(self.directory, _SNAPSHOT_NAME)

    def save(self, state: dict) -> int:
        """Persist ``state`` atomically; returns the new generation number."""
        self.generation += 1
        blob = {"generation": self.generation, "state": state}
        data = _seal(pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL))
        fault = None
        if self.faults is not None:
            fault = self.faults.snapshot_action(self.generation)
        if fault in ("torn-tmp", "corrupt-published"):
            # A torn write: only a prefix of the blob reaches the media.
            data = data[: max(1, len(data) // 2)]
        commit = fault not in ("torn-tmp", "crash-before-commit")
        self._publish(data, commit)
        if not commit or fault == "crash-after-commit":
            raise CrashPoint(
                f"injected crash {'after' if commit else 'before'} committing "
                f"snapshot generation {self.generation}"
            )
        return self.generation

    def load(self) -> dict | None:
        """Return the latest snapshot state, or None if none was taken.

        Raises :class:`RecoveryError` if the stored snapshot fails its
        integrity check — a detected-corrupt snapshot must never be
        silently restored.
        """
        raw = self.export_blob()
        if raw is None:
            return None
        blob = _unseal(raw, self._origin())
        self.generation = int(blob["generation"])
        return blob["state"]

    @property
    def has_snapshot(self) -> bool:
        return self.export_blob() is not None

    # ------------------------------------------------------------------
    # raw blob access (crash-matrix state priming, restart simulation)
    # ------------------------------------------------------------------
    def export_blob(self) -> bytes | None:
        """Raw sealed snapshot bytes, or None if no snapshot exists."""
        if self.directory is None:
            return self._memory_snapshot
        try:
            with open(self._origin(), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def import_blob(self, payload: bytes | None) -> None:
        """Install raw snapshot bytes as the current snapshot (None: none).

        The blob is *not* validated here — corrupt imports are how the
        fault tests exercise :meth:`load`'s integrity checking.
        """
        self._publish(payload)

    def _publish(self, data: bytes | None, commit: bool = True) -> None:
        """Make ``data`` the published snapshot, atomically.

        On disk the bytes go to a temp file that ``os.replace`` renames
        over the snapshot; ``commit=False`` stops short of the rename (a
        crash before commit), leaving the previous snapshot in place.
        """
        if self.directory is None:
            if commit:
                self._memory_snapshot = data
            return
        if data is None:
            if os.path.exists(self._origin()):
                os.unlink(self._origin())
            return
        fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            if commit:
                os.replace(tmp_path, self._origin())
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
