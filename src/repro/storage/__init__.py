"""SSD-backed storage substrate (paper §4.3).

The paper's Block Controller runs on SPDK against a raw NVMe device. This
package substitutes one deterministic simulated block device
(:class:`SimulatedSSD`) whose latency model is driven by block counts and a
bounded internal queue, plus the Block Controller proper: posting→block
mapping, free-block pool, GET/ParallelGET/APPEND/PUT, and the snapshot/WAL
machinery for crash recovery (§4.4). The device, the WAL and the snapshot
manager each take their medium the same way (``path=`` / ``directory=``,
in memory when None) and a :class:`FaultPlan` as ``faults=``.
"""

from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.storage.faults import FaultEvent, FaultPlan
from repro.storage.iostats import IOStats, IOWindow
from repro.storage.layout import PostingCodec, PostingData
from repro.storage.controller import BlockController
from repro.storage.wal import WriteAheadLog, WalRecord, WalReplayReport
from repro.storage.snapshot import SnapshotManager
from repro.storage.cache import CachedBlockController

__all__ = [
    "SimulatedSSD",
    "FaultEvent",
    "FaultPlan",
    "SSDProfile",
    "IOStats",
    "IOWindow",
    "PostingCodec",
    "PostingData",
    "BlockController",
    "WriteAheadLog",
    "WalRecord",
    "WalReplayReport",
    "SnapshotManager",
    "CachedBlockController",
]
