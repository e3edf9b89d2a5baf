"""I/O accounting for the simulated SSD.

The paper's evaluation reports device IOPS (Figure 8, Figure 9) and the
latency benefits of append-only posting updates come entirely from reduced
read/write amplification. ``IOStats`` tracks exact per-operation counters so
benches can report IOPS and amplification without touching real hardware.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


class IOStats:
    """Thread-safe cumulative I/O counters for one device."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.block_reads = 0
        self.block_writes = 0
        self.read_ops = 0
        self.write_ops = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_us = 0.0

    def record_read(self, blocks: int, nbytes: int, latency_us: float) -> None:
        with self._lock:
            self.block_reads += blocks
            self.read_ops += 1
            self.bytes_read += nbytes
            self.busy_us += latency_us

    def record_write(self, blocks: int, nbytes: int, latency_us: float) -> None:
        with self._lock:
            self.block_writes += blocks
            self.write_ops += 1
            self.bytes_written += nbytes
            self.busy_us += latency_us

    def snapshot(self) -> "IOWindow":
        """Capture current counters for later delta computation."""
        with self._lock:
            return IOWindow(
                block_reads=self.block_reads,
                block_writes=self.block_writes,
                read_ops=self.read_ops,
                write_ops=self.write_ops,
                bytes_read=self.bytes_read,
                bytes_written=self.bytes_written,
                busy_us=self.busy_us,
            )

    def since(self, earlier: "IOWindow") -> "IOWindow":
        """Counters accumulated since ``earlier`` (a prior :meth:`snapshot`).

        Convenience for the common measure-a-window idiom::

            before = ssd.stats.snapshot()
            ...workload...
            window = ssd.stats.since(before)
        """
        return self.snapshot().delta(earlier)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IOStats(reads={self.block_reads}, writes={self.block_writes}, "
            f"bytes_read={self.bytes_read}, bytes_written={self.bytes_written})"
        )


@dataclass(frozen=True)
class IOWindow:
    """Immutable counter snapshot; subtract two to get a measurement window."""

    block_reads: int
    block_writes: int
    read_ops: int
    write_ops: int
    bytes_read: int
    bytes_written: int
    busy_us: float

    def delta(self, earlier: "IOWindow") -> "IOWindow":
        """Counters accumulated between ``earlier`` and this snapshot."""
        return IOWindow(
            block_reads=self.block_reads - earlier.block_reads,
            block_writes=self.block_writes - earlier.block_writes,
            read_ops=self.read_ops - earlier.read_ops,
            write_ops=self.write_ops - earlier.write_ops,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            busy_us=self.busy_us - earlier.busy_us,
        )

    @property
    def block_ios(self) -> int:
        return self.block_reads + self.block_writes

    def iops(self, wall_s: float) -> float:
        """Block I/Os per second over a wall-clock window."""
        if wall_s <= 0:
            return 0.0
        return self.block_ios / wall_s

    def read_amplification(self, useful_bytes: int) -> float:
        """Device bytes read per logically useful byte (0 when undefined)."""
        if useful_bytes <= 0:
            return 0.0
        return self.bytes_read / useful_bytes

    def write_amplification(self, useful_bytes: int) -> float:
        """Device bytes written per logically useful byte (0 when undefined)."""
        if useful_bytes <= 0:
            return 0.0
        return self.bytes_written / useful_bytes

    def to_metrics(self, prefix: str = "io") -> dict[str, float]:
        """Flatten the window into perf-harness metric names.

        Every counter here is deterministic under a seeded single-threaded
        workload, so these land in the gated section of ``BENCH_*.json``.
        """
        sep = "_" if prefix and not prefix.endswith("_") else ""
        key = f"{prefix}{sep}" if prefix else ""
        return {
            f"{key}block_reads": float(self.block_reads),
            f"{key}block_writes": float(self.block_writes),
            f"{key}read_ops": float(self.read_ops),
            f"{key}write_ops": float(self.write_ops),
            f"{key}bytes_read": float(self.bytes_read),
            f"{key}bytes_written": float(self.bytes_written),
            f"{key}busy_us": round(self.busy_us, 3),
        }
