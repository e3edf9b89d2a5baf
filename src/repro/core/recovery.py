"""Crash recovery: snapshot assembly and restore + WAL replay (paper §4.4).

A snapshot captures every in-memory structure: the centroid index, the
version map, the block mapping + free pool, and the posting-id allocator
cursor. Disk blocks referenced by the snapshot survive by construction —
the Block Controller defers releases between checkpoints — so restoring
the mapping makes the old posting contents readable again, and replaying
the WAL brings the index forward to the crash point.

Recovery is expected to run against *damaged* inputs: the WAL may hold a
torn tail or corrupt records (quarantined by
:meth:`~repro.storage.wal.WriteAheadLog.replay`), and individual replayed
updates may fail against the restored state. Neither aborts the restore;
everything skipped or discarded is tallied in a :class:`RecoveryReport`
attached to the index as ``index.last_recovery`` and mirrored into
``index.stats`` counters (``wal_records_replayed`` etc.). Only a missing
or integrity-failed snapshot — state that cannot be trusted at all —
raises :class:`~repro.util.errors.RecoveryError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.centroids import make_centroid_index
from repro.core.config import SPFreshConfig
from repro.core.ids import IdAllocator
from repro.core.version_map import VersionMap
from repro.storage.snapshot import SnapshotManager
from repro.storage.ssd import SimulatedSSD
from repro.storage.wal import WalReplayReport, WriteAheadLog
from repro.util.errors import CrashPoint, RecoveryError, ReproError, StorageError


@dataclass
class RecoveryReport:
    """What one snapshot+WAL recovery replayed, skipped, and discarded."""

    snapshot_generation: int = 0
    records_replayed: int = 0
    records_skipped: int = 0  # inserts the snapshot already contained live
    records_quarantined: int = 0  # CRC/framing failures skipped by replay
    records_failed: int = 0  # records that errored while being re-applied
    bytes_quarantined: int = 0
    torn_tail_bytes: int = 0
    # Replayed inserts still buffered in the fresh tier when recovery
    # finished (fresh-tier indexes only; the WAL is their durable record).
    records_in_fresh_tier: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing was lost: no corruption, no tears, no errors."""
        return (
            self.records_quarantined == 0
            and self.records_failed == 0
            and self.torn_tail_bytes == 0
        )

    def summary(self) -> str:
        return (
            f"recovered from snapshot generation {self.snapshot_generation}: "
            f"{self.records_replayed} WAL records replayed, "
            f"{self.records_skipped} already in snapshot, "
            f"{self.records_quarantined} quarantined "
            f"({self.bytes_quarantined} bytes), "
            f"{self.records_failed} failed to apply, "
            f"{self.torn_tail_bytes} torn tail bytes, "
            f"{self.records_in_fresh_tier} resident in the fresh tier"
        )


def collect_state(index) -> dict:
    """Gather a serializable snapshot of an index's in-memory state."""
    state = {
        "config_dim": index.config.dim,
        "controller": index.controller.state_dict(),
        "centroids": index.centroid_index.state_dict(),
        "version_map": index.version_map.state_dict(),
        "next_posting_id": index.posting_ids.peek(),
    }
    quantizer = getattr(index, "quantizer", None)
    if quantizer is not None:
        # The fitted codebooks/ranges are part of the index: without them
        # the code sections on disk are unreadable and re-encoding after
        # restart would drift. ndarray state pickles through the snapshot
        # layer unchanged.
        state["quantizer"] = quantizer.state_dict()
    return state


def restore_index(
    index_cls,
    ssd: SimulatedSSD,
    config: SPFreshConfig,
    snapshots: SnapshotManager,
    wal: WriteAheadLog | None = None,
):
    """Rebuild an index object from snapshot + WAL on a surviving device."""
    from repro.quantize import quantizer_from_state
    from repro.storage.controller import BlockController
    from repro.storage.layout import PostingCodec

    state = snapshots.load()  # raises RecoveryError on integrity failure
    if state is None:
        raise RecoveryError("no snapshot available to recover from")
    if state["config_dim"] != config.dim:
        raise RecoveryError(
            f"snapshot dim {state['config_dim']} != config dim {config.dim}"
        )

    quantizer_state = state.get("quantizer")
    quantizer = None
    if config.quant_enabled:
        if quantizer_state is None:
            raise RecoveryError(
                "config enables quantization but the snapshot carries no "
                "quantizer state"
            )
        try:
            quantizer = quantizer_from_state(quantizer_state)
        except (KeyError, TypeError, ValueError) as exc:
            raise RecoveryError(
                f"snapshot quantizer state is unusable: {exc}"
            ) from exc
        if quantizer.dim != config.dim:
            raise RecoveryError(
                f"snapshot quantizer dim {quantizer.dim} != config dim "
                f"{config.dim}"
            )
    elif quantizer_state is not None:
        raise RecoveryError(
            "snapshot was taken from a quantized index but the config "
            "disables quantization"
        )
    controller = BlockController(ssd, PostingCodec(config.dim, config.block_size, quantizer))
    try:
        controller.load_state_dict(state["controller"])
    except (StorageError, KeyError, TypeError, ValueError) as exc:
        raise RecoveryError(
            f"snapshot block mapping is inconsistent with the device: {exc}"
        ) from exc

    centroid_index = make_centroid_index(config.centroid_index_kind, config.dim)
    centroid_index.load_state_dict(state["centroids"])

    version_map = VersionMap()
    version_map.load_state_dict(state["version_map"])

    index = index_cls(
        config=config,
        ssd=ssd,
        controller=controller,
        centroid_index=centroid_index,
        version_map=version_map,
        posting_ids=IdAllocator(int(state["next_posting_id"])),
        wal=wal,
        snapshots=snapshots,
    )
    controller.begin_defer_release()  # recovery always has snapshots

    report = RecoveryReport(snapshot_generation=snapshots.generation)
    if wal is not None:
        _replay_wal(index, wal, report)
    index.last_recovery = report
    index.stats.incr("recoveries")
    index.stats.incr("wal_records_replayed", report.records_replayed)
    index.stats.incr("wal_records_skipped", report.records_skipped)
    index.stats.incr("wal_records_quarantined", report.records_quarantined)
    index.stats.incr("recovery_apply_errors", report.records_failed)
    return index


def _replay_wal(index, wal: WriteAheadLog, report: RecoveryReport) -> None:
    """Re-apply logged updates on top of the restored snapshot.

    Replay calls the normal Updater paths with logging disabled so a
    recovery does not re-log its own replay — on a fresh-tier index the
    replayed inserts therefore land back in the in-memory tier, exactly
    where they lived before the crash (docs/fresh-tier.md); this is how
    tier contents survive: the WAL is their only durable record. Inserts
    of ids the snapshot already saw live are skipped (they were logged
    before the snapshot landed but the snapshot includes them — possible
    because checkpoint flushes the tier, then truncates the WAL *after*
    persisting). Corrupt records are quarantined
    by the WAL itself; a record that fails while being re-applied is
    counted and skipped rather than aborting the whole recovery — one bad
    update must not take down every good one behind it.
    """
    wal_report = WalReplayReport()
    for record in list(wal.replay(report=wal_report)):
        try:
            if record.is_insert:
                if index.version_map.is_registered(
                    record.vector_id
                ) and not index.version_map.is_deleted(record.vector_id):
                    report.records_skipped += 1
                    continue
                index.updater.insert(record.vector_id, record.vector, log=False)
            else:
                index.updater.delete(record.vector_id, log=False)
            report.records_replayed += 1
        except CrashPoint:
            raise  # an injected crash mid-recovery is a real crash
        except (ReproError, ValueError):
            report.records_failed += 1
    index.drain()
    if index.fresh_tier is not None:
        report.records_in_fresh_tier = len(index.fresh_tier)
    report.records_quarantined = wal_report.records_quarantined
    report.bytes_quarantined = wal_report.bytes_quarantined
    report.torn_tail_bytes = wal_report.torn_tail_bytes
