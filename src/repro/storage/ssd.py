"""Deterministic simulated NVMe SSD (substitute for SPDK + raw device).

The paper's Block Controller issues raw 4K block I/O through SPDK. Here a
block device is an array of fixed-size blocks with a simple but faithful
latency model:

* each block read/write costs a fixed device latency;
* the device services up to ``queue_depth`` block requests in parallel, so a
  batch of ``n`` blocks completes in ``ceil(n / queue_depth)`` waves.

This reproduces the two effects the paper's latency numbers depend on:
ParallelGET hides per-posting latency (one wave for many postings), while a
grown posting (SPANN+) needs more blocks and therefore more waves. All
latencies are *simulated* values returned to callers; nothing sleeps.

One device, two media, taken the way :class:`~repro.storage.wal.WriteAheadLog`
and :class:`~repro.storage.snapshot.SnapshotManager` take theirs:
``path=None`` keeps blocks in a sparse in-memory dict; a ``path`` keeps
them in a flat file (block i at byte ``i * block_size``) that a new
process reopens with :meth:`SimulatedSSD.reopen` for cold recovery. The
medium only stores bytes: bounds and size checks, padding, the latency
model, :class:`~repro.storage.iostats.IOStats` and fault injection are the
device's, identical on both. ``faults=`` attaches a
:class:`~repro.storage.faults.FaultPlan` (taxonomy in that module).
"""

from __future__ import annotations

import math
import os
import threading

from repro.storage.faults import FaultEvent, FaultPlan
from repro.storage.iostats import IOStats
from repro.util.errors import CrashPoint, InjectedFaultError, StorageError


class SSDProfile:
    """Latency/parallelism parameters of the simulated device.

    Defaults approximate a datacenter NVMe drive: ~90us 4K random read,
    ~20us write (write-back cache), queue depth 32.
    """

    def __init__(
        self,
        block_size: int = 4096,
        read_latency_us: float = 90.0,
        write_latency_us: float = 20.0,
        queue_depth: int = 32,
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if read_latency_us < 0 or write_latency_us < 0:
            raise ValueError("latencies must be non-negative")
        self.block_size = block_size
        self.read_latency_us = read_latency_us
        self.write_latency_us = write_latency_us
        self.queue_depth = queue_depth

    def read_batch_latency_us(self, num_blocks: int) -> float:
        """Simulated completion latency of a batch of block reads."""
        if num_blocks <= 0:
            return 0.0
        waves = math.ceil(num_blocks / self.queue_depth)
        return waves * self.read_latency_us

    def write_batch_latency_us(self, num_blocks: int) -> float:
        """Simulated completion latency of a batch of block writes."""
        if num_blocks <= 0:
            return 0.0
        waves = math.ceil(num_blocks / self.queue_depth)
        return waves * self.write_latency_us


class _FileBlocks:
    """The file medium: block i at byte ``i * block_size`` of a flat file.

    Answers the few dict calls the device makes on its memory medium
    (``get``, ``update``, ``pop``, ``items``, ``clear``, ``len``), so both
    media share one device code path. ``_held`` plays the dict's keys —
    blocks written and not trimmed — and is rebuilt from the file's
    non-zero blocks on open.
    """

    def __init__(self, path: str, num_blocks: int, block_size: int) -> None:
        size = num_blocks * block_size
        current = os.path.getsize(path) if os.path.exists(path) else 0
        if current > size:
            raise StorageError(
                f"existing device file {path} is {current} bytes, larger than "
                f"the requested geometry ({size}); refusing to shrink it"
            )
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        os.ftruncate(self._fd, size)
        self._size = block_size
        zero = bytes(block_size)
        self._held = {
            bid for bid in range(current // block_size) if self._read(bid) != zero
        }

    def _read(self, bid: int) -> bytes:
        return os.pread(self._fd, self._size, bid * self._size)

    def get(self, bid: int, default: bytes) -> bytes:
        return self._read(bid) if bid in self._held else default

    def update(self, pairs) -> None:
        for bid, data in pairs:
            os.pwrite(self._fd, data, bid * self._size)
            self._held.add(bid)

    def pop(self, bid: int, default=None) -> None:
        if bid in self._held:
            self._held.discard(bid)
            os.pwrite(self._fd, bytes(self._size), bid * self._size)

    def items(self):
        return [(bid, self._read(bid)) for bid in sorted(self._held)]

    def clear(self) -> None:
        for bid in list(self._held):
            self.pop(bid)

    def __len__(self) -> int:
        return len(self._held)

    def sync(self) -> None:
        os.fsync(self._fd)

    def close(self) -> None:
        os.close(self._fd)


class SimulatedSSD:
    """Fixed-capacity block device with simulated latency and I/O stats.

    Thread-safe: a single lock guards block contents. Every ``read_blocks``
    / ``write_blocks`` / ``trim`` call is one device op: it takes the next
    :attr:`op_index`, which is what a :class:`FaultPlan` decides on.
    Acknowledged ops (clean, dropped, corrupt) record IOStats; failed and
    crashed ops (read errors, torn writes, crash points) record nothing,
    and every injected fault is appended to :attr:`events`. A write,
    trim, poke or import is validated whole — ids and payload sizes —
    before the medium is touched, so a rejected one changes nothing and
    consumes no op index.
    """

    def __init__(
        self,
        num_blocks: int,
        profile: SSDProfile | None = None,
        *,
        path: str | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        self.profile = profile or SSDProfile()
        self.num_blocks = num_blocks
        self.path = path
        self.faults = faults
        self.stats = IOStats()
        self.op_index = 0
        self.events: list[FaultEvent] = []
        self._lock = threading.Lock()
        # Unwritten blocks read back as the shared zero block, which keeps
        # hole reads allocation-free on the hot path.
        self._zero_block = b"\x00" * self.block_size
        self._blocks = (
            {} if path is None else _FileBlocks(path, num_blocks, self.block_size)
        )

    @classmethod
    def reopen(
        cls, path: str, num_blocks: int, profile: SSDProfile | None = None
    ) -> "SimulatedSSD":
        """Open an existing device file (the restarted-process path).

        The file must match the requested geometry exactly: a shrunken or
        truncated device file means blocks the previous incarnation wrote
        are gone, and silently re-extending it with zeroes would feed the
        Block Controller phantom empty blocks where posting data used to
        be. That is a storage fault, not a recovery input.
        """
        if not os.path.exists(path):
            raise StorageError(f"no device file at {path}")
        expected = num_blocks * (profile or SSDProfile()).block_size
        actual = os.path.getsize(path)
        if actual != expected:
            raise StorageError(
                f"device file {path} is {actual} bytes but the requested "
                f"geometry ({num_blocks} blocks) needs exactly {expected}; "
                "refusing to reopen a truncated or resized device"
            )
        return cls(num_blocks, profile, path=path)

    @property
    def block_size(self) -> int:
        return self.profile.block_size

    @property
    def capacity_bytes(self) -> int:
        return self.num_blocks * self.block_size

    # ------------------------------------------------------------------
    # validation and fault hooks
    # ------------------------------------------------------------------
    def _range_error(self, block_id: int) -> StorageError:
        return StorageError(f"block id {block_id} out of range [0, {self.num_blocks})")

    def _check_ids(self, block_ids: list[int]) -> None:
        n = self.num_blocks
        for bid in block_ids:
            if not 0 <= bid < n:
                raise self._range_error(bid)

    def _padded(self, block_ids: list[int], payloads: list[bytes]) -> list[bytes]:
        """The batch's payloads zero-padded to whole blocks, once it checks out."""
        if len(block_ids) != len(payloads):
            raise StorageError("block_ids and payloads length mismatch")
        n, size = self.num_blocks, self.block_size
        out: list[bytes] = []
        for bid, data in zip(block_ids, payloads):
            if not 0 <= bid < n:
                raise self._range_error(bid)
            if len(data) > size:
                raise StorageError(f"payload of {len(data)} bytes exceeds block size {size}")
            out.append(bytes(data).ljust(size, b"\x00"))
        return out

    def _next_op(self, channel: str) -> int:
        """Number one device op; a planned crash fires here (writes tear)."""
        index = self.op_index
        self.op_index += 1
        plan = self.faults
        if plan is not None and channel != "write" and plan.crashes_at(index):
            self.events.append(FaultEvent(index, channel, "crash"))
            raise CrashPoint(f"injected crash at device op {index} ({channel})")
        return index

    def _faulty_write(self, index, plan, block_ids, payloads):
        """The (block, payload) pairs a write under ``plan`` really stores.

        A torn write (or a crash at this op) stores a prefix plus part of
        the next block, then raises :class:`CrashPoint`. A dropped write
        loses some blocks and a corrupt one flips a bit; both stay
        acknowledged, so their loss is silent.
        """
        n, size = len(block_ids), self.block_size
        fault = plan.write_fault(index)
        if plan.crashes_at(index) or fault == "torn":
            keep, partial = plan.torn_shape(index, n, size)
            self._blocks.update(zip(block_ids[:keep], payloads[:keep]))
            if keep < n and partial > 0:
                bid = block_ids[keep]
                old = self._blocks.get(bid, self._zero_block)
                self._blocks.update([(bid, payloads[keep][:partial] + old[partial:])])
            kind = "crash" if plan.crashes_at(index) else "torn"
            detail = f"kept {keep} blocks + {partial} bytes of block {keep}"
            self.events.append(FaultEvent(index, "write", kind, detail))
            raise CrashPoint(
                f"injected crash tearing write op {index} after "
                f"{keep} blocks + {partial} bytes"
            )
        if fault == "dropped":
            lost = plan.dropped_blocks(index, n)
            detail = f"lost {len(lost)}/{n} blocks"
            self.events.append(FaultEvent(index, "write", "dropped", detail))
            return [pair for at, pair in enumerate(zip(block_ids, payloads)) if at not in lost]
        if fault == "corrupt":
            at, offset, mask = plan.corrupt_site(index, n, size)
            data = payloads[at]
            payloads[at] = data[:offset] + bytes([data[offset] ^ mask]) + data[offset + 1 :]
            detail = f"flipped bit {mask:#04x} at block {block_ids[at]}+{offset}"
            self.events.append(FaultEvent(index, "write", "corrupt", detail))
        return zip(block_ids, payloads)

    # ------------------------------------------------------------------
    # block primitives
    # ------------------------------------------------------------------
    def read_blocks(self, block_ids: list[int]) -> tuple[list[bytes], float]:
        """Read a batch of blocks; returns (data, simulated latency in us).

        The batch is dispatched as one parallel I/O submission, matching the
        controller's Concurrent I/O Request Queue.
        """
        zero, n = self._zero_block, self.num_blocks
        out: list[bytes] = []
        with self._lock:
            index = self._next_op("read")
            if self.faults is not None and self.faults.read_error(index):
                self.events.append(FaultEvent(index, "read", "read-error"))
                raise InjectedFaultError(f"injected read I/O error at device op {index}")
            get = self._blocks.get
            for bid in block_ids:
                if not 0 <= bid < n:
                    raise self._range_error(bid)
                out.append(get(bid, zero))
        latency = self.profile.read_batch_latency_us(len(block_ids))
        self.stats.record_read(
            len(block_ids), len(block_ids) * self.block_size, latency
        )
        return out, latency

    def write_blocks(self, block_ids: list[int], payloads: list[bytes]) -> float:
        """Write a batch of blocks; returns simulated latency in us."""
        payloads = self._padded(block_ids, payloads)
        with self._lock:
            index = self._next_op("write")
            plan = self.faults
            pairs = zip(block_ids, payloads)
            if plan is not None and plan.armed and block_ids:
                pairs = self._faulty_write(index, plan, block_ids, payloads)
            self._blocks.update(pairs)
        latency = self.profile.write_batch_latency_us(len(block_ids))
        self.stats.record_write(
            len(block_ids), len(block_ids) * self.block_size, latency
        )
        return latency

    def read_block(self, block_id: int) -> tuple[bytes, float]:
        data, latency = self.read_blocks([block_id])
        return data[0], latency

    def write_block(self, block_id: int, payload: bytes) -> float:
        return self.write_blocks([block_id], [payload])

    def trim(self, block_ids: list[int]) -> None:
        """Discard block contents (free-pool release); costs no device time."""
        self._check_ids(block_ids)
        with self._lock:
            self._next_op("trim")
            for bid in block_ids:
                self._blocks.pop(bid, None)

    def used_blocks(self) -> int:
        """Number of blocks holding written (non-trimmed) data."""
        with self._lock:
            return len(self._blocks)

    def sync(self) -> None:
        """Make written blocks durable before a checkpoint publishes a
        snapshot that references them: fsync on the file medium, nothing
        in memory. Not a device op."""
        if self.path is not None:
            with self._lock:
                self._blocks.sync()

    def close(self) -> None:
        if self.path is not None:
            with self._lock:
                self._blocks.close()

    # ------------------------------------------------------------------
    # stats-free backdoors (crash-matrix state priming, audits)
    # ------------------------------------------------------------------
    def peek_block(self, block_id: int) -> bytes:
        """Raw block content with no stats, latency or op index."""
        self._check_ids([block_id])
        with self._lock:
            return self._blocks.get(block_id, self._zero_block)

    def poke_block(self, block_id: int, payload: bytes) -> None:
        """Write raw block content with no stats, latency or op index."""
        payloads = self._padded([block_id], [payload])
        with self._lock:
            self._blocks.update(zip([block_id], payloads))

    def export_blocks(self) -> dict[int, bytes]:
        """Copy of all written blocks (crash-matrix trials restart from it)."""
        with self._lock:
            return dict(self._blocks.items())

    def import_blocks(self, blocks: dict[int, bytes]) -> None:
        """Replace device contents wholesale; no stats, no latency."""
        block_ids = [int(bid) for bid in blocks]
        payloads = self._padded(block_ids, list(blocks.values()))
        with self._lock:
            self._blocks.clear()
            self._blocks.update(zip(block_ids, payloads))
