"""Crash recovery walkthrough: snapshot + WAL survive a process crash.

SPFresh's recovery story (paper §4.4): periodic snapshots of the in-memory
structures (centroid index, version map, block mapping) plus a write-ahead
log of updates between snapshots. The block store's copy-on-write
allocation keeps every snapshot-referenced block intact until the next
checkpoint, so recovery = load snapshot + replay WAL.

Run:  python examples/crash_recovery.py
"""

import numpy as np

from repro.api import QueryRequest
from repro import SPFreshConfig, SPFreshIndex
from repro.storage.snapshot import SnapshotManager
from repro.storage.wal import WriteAheadLog

RNG = np.random.default_rng(7)
DIM = 32


def main() -> None:
    vectors = RNG.normal(size=(4000, DIM)).astype(np.float32)
    wal = WriteAheadLog()  # in-memory for the demo; pass a path for disk
    snapshots = SnapshotManager()
    index = SPFreshIndex.build(
        vectors, config=SPFreshConfig(dim=DIM), wal=wal, snapshots=snapshots
    )

    # Checkpoint: everything up to here is durable.
    generation = index.checkpoint()
    print(f"checkpoint generation {generation} taken "
          f"({index.live_vector_count} vectors)")

    # Post-checkpoint updates land in the WAL only.
    post_crash_vectors = {}
    for i in range(500):
        vid = 4000 + i
        vec = RNG.normal(size=DIM).astype(np.float32)
        index.insert(vid, vec)
        post_crash_vectors[vid] = vec
    for vid in range(200):
        index.delete(vid)
    print(f"applied 700 updates after the checkpoint "
          f"(WAL holds {wal.record_count} records)")

    # --- CRASH: all in-memory state is gone; only the device + WAL + ---
    # --- snapshot survive.                                            ---
    device = index.ssd
    config = index.config
    del index

    recovered = SPFreshIndex.recover(device, config, snapshots, wal=wal)
    print(f"recovered: {recovered.live_vector_count} live vectors, "
          f"{recovered.num_postings} postings")

    # Every post-checkpoint insert is searchable again.
    probe_id, probe_vec = next(iter(post_crash_vectors.items()))
    result = recovered.query(
        QueryRequest.single(probe_vec, k=1, nprobe=recovered.num_postings)
    ).result
    assert result.ids[0] == probe_id
    # Every post-checkpoint delete stayed deleted.
    assert recovered.version_map.is_deleted(0)
    print("post-checkpoint inserts recovered, deletes honored — "
          "recovery complete.")


if __name__ == "__main__":
    main()
