"""Deterministic storage fault injection for crash/recovery testing.

The durability story (paper §4.4: snapshot + WAL replay) is only credible
if recovery survives a *misbehaving* device, not just a clean shutdown.
This module provides the adversary, :class:`FaultPlan`: a seeded, fully
deterministic fault schedule. Every decision is a pure function of
``(seed, op_index)``, so two devices running the same operation sequence
under equal plans inject byte-identical faults (and therefore produce
identical :class:`~repro.storage.iostats.IOStats`).

Each durability channel takes the plan as ``faults=`` and consults it
itself. :class:`~repro.storage.ssd.SimulatedSSD` numbers its device ops
(reads, writes, trims), asks the plan before each one on either medium,
and records every injected fault as a :class:`FaultEvent`.

Fault taxonomy (see ``docs/fault-model.md`` for the full contract):

========== =================================================================
torn write  a prefix of the batch (plus a partial block) reaches the media,
            then :class:`~repro.util.errors.CrashPoint` is raised — the op
            is never acknowledged and records no stats.
dropped     the write is acknowledged (stats recorded, latency returned)
write       but a subset of blocks silently never hits the media — a
            volatile-cache loss.
read error  :class:`~repro.util.errors.InjectedFaultError` is raised before
            any data moves; the op records no stats (error'd ops must not
            skew latency/amplification counters).
corruption  one byte of one payload is flipped before it hits the media;
            the host sees a successful write.
crash point ``crash_at_op=N`` raises :class:`CrashPoint` at the Nth device
            op — before a read or trim, tearing a write. The crash-matrix harness
            sweeps N over every op of a workload.
========== =================================================================

The same plan also drives the torn-append/corruption hooks of
:class:`~repro.storage.wal.WriteAheadLog` (``wal_tear_at`` /
``wal_corrupt_at``, indexed by lifetime append number) and the
snapshot-boundary faults of
:class:`~repro.storage.snapshot.SnapshotManager` (``snapshot_fault`` at
``snapshot_fault_generation``), so one ``FaultPlan`` describes a full
crash scenario across all three durability channels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


SNAPSHOT_FAULTS = (
    "torn-tmp",  # torn temp file, crash before commit (old snapshot survives)
    "crash-before-commit",  # full temp file written, crash before rename
    "crash-after-commit",  # crash right after rename (WAL not yet truncated)
    "corrupt-published",  # torn blob is committed — load() must detect it
)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded for audits and determinism checks."""

    op_index: int
    channel: str  # "read" | "write" | "trim" | "wal" | "snapshot"
    kind: str  # "crash" | "torn" | "dropped" | "read-error" | "corrupt"
    detail: str = ""


class FaultPlan:
    """Seeded, deterministic fault schedule.

    The plan holds no mutable state: every decision derives from
    ``(seed, op_index)``, which is what makes a crash reproducible — rerun
    the same workload under the same plan and the same fault fires at the
    same byte. ``disarm()`` turns all injection off (recovery runs on the
    same device object fault-free); ``arm()`` re-enables it for
    crash/recover/resume cycles.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        crash_at_op: int | None = None,
        read_error_rate: float = 0.0,
        torn_write_rate: float = 0.0,
        dropped_write_rate: float = 0.0,
        corrupt_write_rate: float = 0.0,
        wal_tear_at: tuple[int, int | None] | None = None,
        wal_corrupt_at: tuple[int, int | None] | None = None,
        snapshot_fault: str | None = None,
        snapshot_fault_generation: int | None = None,
    ) -> None:
        for name, rate in (
            ("read_error_rate", read_error_rate),
            ("torn_write_rate", torn_write_rate),
            ("dropped_write_rate", dropped_write_rate),
            ("corrupt_write_rate", corrupt_write_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if torn_write_rate + dropped_write_rate + corrupt_write_rate > 1.0:
            raise ValueError("write fault rates must sum to at most 1")
        if snapshot_fault is not None and snapshot_fault not in SNAPSHOT_FAULTS:
            raise ValueError(
                f"unknown snapshot_fault {snapshot_fault!r}; "
                f"choose from {SNAPSHOT_FAULTS}"
            )
        self.seed = seed
        self.crash_at_op = crash_at_op
        self.read_error_rate = read_error_rate
        self.torn_write_rate = torn_write_rate
        self.dropped_write_rate = dropped_write_rate
        self.corrupt_write_rate = corrupt_write_rate
        self.wal_tear_at = wal_tear_at
        self.wal_corrupt_at = wal_corrupt_at
        self.snapshot_fault = snapshot_fault
        self.snapshot_fault_generation = snapshot_fault_generation
        self.armed = True

    # ------------------------------------------------------------------
    def arm(self) -> "FaultPlan":
        self.armed = True
        return self

    def disarm(self) -> "FaultPlan":
        """Disable all injection (the post-crash recovery runs fault-free)."""
        self.armed = False
        return self

    # ------------------------------------------------------------------
    # deterministic decision streams
    # ------------------------------------------------------------------
    def _rng(self, op_index: int, salt: int) -> random.Random:
        # Explicit integer mixing (not hash()) so the stream is identical
        # across processes and independent of call-order history.
        return random.Random((self.seed + 1) * 1_000_003 + op_index * 7919 + salt)

    def crashes_at(self, op_index: int) -> bool:
        return self.armed and self.crash_at_op == op_index

    def read_error(self, op_index: int) -> bool:
        if not self.armed or self.read_error_rate <= 0.0:
            return False
        return self._rng(op_index, 1).random() < self.read_error_rate

    def write_fault(self, op_index: int) -> str | None:
        """One of None / 'torn' / 'dropped' / 'corrupt' for this write op."""
        if not self.armed:
            return None
        total = self.torn_write_rate + self.dropped_write_rate + self.corrupt_write_rate
        if total <= 0.0:
            return None
        roll = self._rng(op_index, 2).random()
        if roll < self.torn_write_rate:
            return "torn"
        if roll < self.torn_write_rate + self.dropped_write_rate:
            return "dropped"
        if roll < total:
            return "corrupt"
        return None

    def torn_shape(
        self, op_index: int, num_blocks: int, block_size: int
    ) -> tuple[int, int]:
        """(full blocks committed, bytes of the next block) for a torn write."""
        rng = self._rng(op_index, 3)
        keep = rng.randrange(num_blocks) if num_blocks > 0 else 0
        partial = rng.randrange(block_size)
        return keep, partial

    def dropped_blocks(self, op_index: int, num_blocks: int) -> set[int]:
        """Batch positions (not block ids) silently lost by a dropped write."""
        rng = self._rng(op_index, 4)
        count = 1 + rng.randrange(num_blocks)
        return set(rng.sample(range(num_blocks), count))

    def corrupt_site(
        self, op_index: int, num_blocks: int, block_size: int
    ) -> tuple[int, int, int]:
        """(batch position, byte offset, xor mask) for a corrupting write."""
        rng = self._rng(op_index, 5)
        position = rng.randrange(num_blocks)
        offset = rng.randrange(block_size)
        mask = 1 << rng.randrange(8)
        return position, offset, mask

    # ------------------------------------------------------------------
    # WAL / snapshot hooks (consulted by WriteAheadLog and SnapshotManager)
    # ------------------------------------------------------------------
    def wal_action(self, append_index: int) -> tuple[str, int | None] | None:
        """Fault for the Nth WAL append of the log's lifetime, if any."""
        if not self.armed:
            return None
        if self.wal_tear_at is not None and append_index == self.wal_tear_at[0]:
            return ("tear", self.wal_tear_at[1])
        if self.wal_corrupt_at is not None and append_index == self.wal_corrupt_at[0]:
            return ("corrupt", self.wal_corrupt_at[1])
        return None

    def snapshot_action(self, generation: int) -> str | None:
        """Fault for the snapshot save producing ``generation``, if any."""
        if not self.armed or self.snapshot_fault is None:
            return None
        if (
            self.snapshot_fault_generation is not None
            and generation != self.snapshot_fault_generation
        ):
            return None
        return self.snapshot_fault
