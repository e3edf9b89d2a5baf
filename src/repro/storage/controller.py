"""Block Controller (paper §4.3): posting store over the simulated SSD.

Responsibilities, mirroring the paper:

* **Block Mapping** — posting id → (length, SSD block offsets), kept in
  memory; one entry is modelled at 40 bytes as in the paper.
* **Free Block Pool** — allocation and (optionally deferred) release of
  blocks; deferral implements the pre-release buffer used by snapshots.
* **Posting API** — GET, ParallelGET, APPEND (tail-block read-modify-write
  only), PUT, DELETE. All return simulated device latency so callers can
  attribute I/O time to foreground/background work.

A ParallelGET (``parallel_get`` for whole postings, ``parallel_get_codes``
for the code section, section 0 of a quantized layout) is one device
submission and one decode: the flat block list goes to the codec, which
returns a single :class:`~repro.storage.layout.PostingArena` over the
postings that still exist, in request order. ``parallel_get_vector_rows``
(the rerank read) gathers its rows out of the codec's view of the last
section's blocks as one matrix.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.metrics.profiling import NULL_PROFILER, Profiler
from repro.storage.layout import (
    PostingArena,
    PostingCodec,
    PostingData,
    cut_blocks,
    join_valid,
)
from repro.storage.ssd import SimulatedSSD
from repro.util.errors import OutOfSpaceError, StalePostingError, StorageError

MAPPING_ENTRY_BYTES = 40  # paper: "a block mapping entry only consumes 40 bytes"


@dataclass
class _PostingMeta:
    length: int
    blocks: list[int] = field(default_factory=list)


class BlockController:
    """Thread-safe posting store with simulated latency accounting."""

    def __init__(
        self,
        ssd: SimulatedSSD,
        codec: PostingCodec,
        profiler: Profiler | None = None,
    ) -> None:
        if codec.block_size != ssd.block_size:
            raise StorageError("codec block size must match device block size")
        self.ssd = ssd
        self.codec = codec
        self.profiler = profiler or NULL_PROFILER
        self._lock = threading.RLock()
        self._mapping: dict[int, _PostingMeta] = {}
        self._free: deque[int] = deque(range(ssd.num_blocks))
        self._defer_release = False
        self._pre_release: list[int] = []

    # ------------------------------------------------------------------
    # free pool
    # ------------------------------------------------------------------
    def _alloc(self, n: int) -> list[int]:
        if len(self._free) < n:
            raise OutOfSpaceError(
                f"need {n} free blocks, only {len(self._free)} available"
            )
        return [self._free.popleft() for _ in range(n)]

    def _release(self, blocks: list[int]) -> None:
        if not blocks:
            return
        if self._defer_release:
            self._pre_release.extend(blocks)
        else:
            self.ssd.trim(blocks)
            self._free.extend(blocks)

    def begin_defer_release(self) -> None:
        """Route freed blocks to the pre-release buffer (snapshot window)."""
        with self._lock:
            self._defer_release = True

    def end_defer_release(self) -> list[int]:
        """Stop deferral and flush the pre-release buffer to the free pool.

        Returns the block ids that were released, for audit/testing.
        """
        with self._lock:
            self._defer_release = False
            released = self._pre_release
            self._pre_release = []
            self.ssd.trim(released)
            self._free.extend(released)
            return released

    @property
    def free_block_count(self) -> int:
        with self._lock:
            return len(self._free)

    # ------------------------------------------------------------------
    # posting API
    # ------------------------------------------------------------------
    def exists(self, posting_id: int) -> bool:
        with self._lock:
            return posting_id in self._mapping

    def length(self, posting_id: int) -> int:
        """Entry count of a posting (includes stale replicas, as on disk)."""
        with self._lock:
            meta = self._mapping.get(posting_id)
            if meta is None:
                raise StalePostingError(f"posting {posting_id} does not exist")
            return meta.length

    def lengths(self, posting_ids: list[int]) -> list[int | None]:
        """Entry counts of many postings under one lock hold; ``None``
        for a posting that does not exist."""
        with self._lock:
            metas = [self._mapping.get(pid) for pid in posting_ids]
        return [None if meta is None else meta.length for meta in metas]

    def mapping_entry(self, posting_id: int) -> object | None:
        """The posting's current mapping entry, None if it does not exist.

        PUT, APPEND and DELETE each install a new entry (or none), so an
        entry that is still the current one vouches that the posting's
        bytes have not changed since it was taken.
        """
        with self._lock:
            return self._mapping.get(posting_id)

    def posting_ids(self) -> list[int]:
        with self._lock:
            return list(self._mapping.keys())

    @property
    def num_postings(self) -> int:
        with self._lock:
            return len(self._mapping)

    def put(self, posting_id: int, data: PostingData) -> float:
        """Write a full posting (create or overwrite). Returns latency (us)."""
        payloads = self.codec.encode(data)
        with self._lock:
            new_blocks = self._alloc(len(payloads))
            with self.profiler.section("io"):
                latency = (
                    self.ssd.write_blocks(new_blocks, payloads) if payloads else 0.0
                )
            old = self._mapping.get(posting_id)
            self._mapping[posting_id] = _PostingMeta(len(data), new_blocks)
            if old is not None:
                self._release(old.blocks)
            return latency

    def create(self, posting_id: int, data: PostingData) -> float:
        """PUT that requires the posting id to be unused."""
        with self._lock:
            if posting_id in self._mapping:
                raise StorageError(f"posting {posting_id} already exists")
            return self.put(posting_id, data)

    def get(self, posting_id: int) -> tuple[PostingData, float]:
        """Read one posting. Returns (data, simulated latency in us)."""
        with self._lock:
            meta = self._mapping.get(posting_id)
            if meta is None:
                raise StalePostingError(f"posting {posting_id} does not exist")
            with self.profiler.section("io"):
                payloads, latency = self.ssd.read_blocks(meta.blocks)
            with self.profiler.section("decode"):
                return self.codec.decode(payloads, meta.length), latency

    def parallel_get(self, posting_ids: list[int]) -> tuple[PostingArena, float]:
        """Read many postings in one batched device submission.

        Returns one arena over the postings found, in request order.
        Missing postings (deleted concurrently) are silently skipped, which
        is what the searcher needs — a posting that vanished mid-query has
        been split and its vectors are reachable via the new postings.
        """
        return self._parallel_read(posting_ids)

    def _parallel_read(
        self, posting_ids: list[int], sections: int | None = None
    ) -> tuple[PostingArena, float]:
        """ParallelGET of the leading ``sections`` of each posting (None:
        whole postings)."""
        codec = self.codec
        with self._lock:
            present: list[int] = []
            lengths: list[int] = []
            all_blocks: list[int] = []
            for pid in posting_ids:
                meta = self._mapping.get(pid)
                if meta is None:
                    continue
                present.append(pid)
                lengths.append(meta.length)
                if sections is None:
                    all_blocks.extend(meta.blocks)
                else:
                    all_blocks.extend(meta.blocks[: codec.blocks_needed(meta.length, sections)])
            with self.profiler.section("io"):
                payloads, latency = self.ssd.read_blocks(all_blocks)
            with self.profiler.section("decode"):
                return codec.decode_batch(payloads, lengths, present, sections), latency

    def append(self, posting_id: int, data: PostingData) -> float:
        """Append entries to a posting's tail (paper's APPEND).

        A section's blocks hold one record stream cut every ``per_block``
        records, so an append *continues* that stream: the valid bytes of
        the partial tail block, then the new rows' packed records, cut
        again at the block size — nothing is decoded. Only partial tail
        blocks are read (one batched submission, at most one block per
        section);
        full blocks stay mapped, section by section, and the replaced
        tails are released once the mapping entry is swapped.
        """
        if len(data) == 0:
            return 0.0
        codec = self.codec
        with self._lock:
            meta = self._mapping.get(posting_id)
            if meta is None:
                raise StalePostingError(f"posting {posting_id} does not exist")
            old_n, fresh = meta.length, codec.encode(data)
            kept: list[list[int]] = []  # per section: blocks that stay mapped
            new: list[list[bytes]] = []  # per section: payloads to write
            old_at = new_at = 0
            for per_block, _ in codec.sections:
                old_stop = old_at - (-old_n // per_block)
                new_stop = new_at - (-len(data) // per_block)
                kept.append(meta.blocks[old_at:old_stop])
                new.append(fresh[new_at:new_stop])
                old_at, new_at = old_stop, new_stop
            # Sections whose last block is partial: that block is replaced.
            partial = [
                i for i, (per_block, _) in enumerate(codec.sections) if old_n % per_block
            ]
            tails = [kept[i].pop() for i in partial]
            latency = 0.0
            if tails:
                with self.profiler.section("io"):
                    tail_payloads, latency = self.ssd.read_blocks(tails)
                for i, payload in zip(partial, tail_payloads):
                    per_block, record_size = codec.sections[i]
                    head = join_valid(
                        [payload], [old_n % per_block], per_block, record_size
                    )
                    new[i] = cut_blocks(
                        head + b"".join(new[i]), per_block * record_size
                    )
            payloads = [payload for section in new for payload in section]
            new_blocks = self._alloc(len(payloads))
            with self.profiler.section("io"):
                latency += self.ssd.write_blocks(new_blocks, payloads)
            blocks: list[int] = []
            at = 0
            for old, section in zip(kept, new):
                blocks += old + new_blocks[at : at + len(section)]
                at += len(section)
            self._mapping[posting_id] = _PostingMeta(old_n + len(data), blocks)
            self._release(tails)
            return latency

    def parallel_get_codes(self, posting_ids: list[int]) -> tuple[PostingArena, float]:
        """Read only the code sections of many postings in one submission.

        The compressed-scan read path: touches only section 0 of each
        posting, and the arena carries codes but no vectors. Missing
        postings are skipped, same as :meth:`parallel_get`. Requires a
        quantized codec.
        """
        if self.codec.quantizer is None:
            raise StorageError("parallel_get_codes requires a quantized codec")
        return self._parallel_read(posting_ids, sections=1)

    def parallel_get_vector_rows(
        self, requests: list[tuple[int, "np.ndarray"]]
    ) -> tuple[list[int], "np.ndarray", float]:
        """Read specific exact-vector rows of many postings (rerank path).

        ``requests`` is ``[(posting_id, row_indices), ...]`` with row
        indices into the on-disk posting (stale entries included, sorted
        ascending). Only the blocks of the last (vector) section covering
        the requested rows are read — one batched submission for the
        whole request set. Returns the posting ids served (missing
        postings and empty requests are skipped), their requested rows
        stacked in request order as one ``(rows, dim)`` float32 matrix,
        and the latency. Requires a quantized codec.
        """
        codec = self.codec
        if codec.quantizer is None:
            raise StorageError("parallel_get_vector_rows requires a quantized codec")
        vpb = codec.sections[-1][0]
        with self._lock:
            served: list[int] = []
            fetched_rows: list[int] = []  # rows held by each posting's fetched blocks
            gather: list[np.ndarray] = []  # requested rows' positions among those
            all_blocks: list[int] = []
            base = 0
            for pid, rows in requests:
                meta = self._mapping.get(pid)
                if meta is None or len(rows) == 0:
                    continue
                rows = np.asarray(rows, dtype=np.intp)
                if rows[-1] >= meta.length:
                    raise StorageError(
                        f"row {int(rows[-1])} out of range for posting {pid} "
                        f"of length {meta.length}"
                    )
                # The last section starts after the blocks of all the others.
                vec_blocks = meta.blocks[codec.blocks_needed(meta.length, -1) :]
                block_of = rows // vpb
                need = np.unique(block_of)
                all_blocks.extend(vec_blocks[b] for b in need.tolist())
                # Every fetched block is full except the section's tail,
                # which is -length % vpb rows short.
                held = len(need) * vpb
                if need[-1] == len(vec_blocks) - 1:
                    held -= -meta.length % vpb
                gather.append(base + np.searchsorted(need, block_of) * vpb + rows % vpb)
                served.append(pid)
                fetched_rows.append(held)
                base += held
            with self.profiler.section("io"):
                payloads, latency = self.ssd.read_blocks(all_blocks)
            with self.profiler.section("decode"):
                # Arena decode: view every fetched block's valid rows as one
                # float32 matrix, then ONE fancy gather pulls all requested
                # rows across every posting.
                arena = codec.section_view(payloads, fetched_rows)["vectors"]
                picks = np.concatenate(gather) if gather else np.empty(0, dtype=np.intp)
                return served, arena[picks], latency

    def delete(self, posting_id: int) -> None:
        """Remove a posting and release its blocks."""
        with self._lock:
            meta = self._mapping.pop(posting_id, None)
            if meta is None:
                raise StalePostingError(f"posting {posting_id} does not exist")
            self._release(meta.blocks)

    # ------------------------------------------------------------------
    # introspection / recovery support
    # ------------------------------------------------------------------
    def mapping_memory_bytes(self) -> int:
        """Modelled DRAM footprint of the block mapping (40 B per posting)."""
        with self._lock:
            return len(self._mapping) * MAPPING_ENTRY_BYTES

    def total_entries(self) -> int:
        """Sum of posting lengths, i.e. on-disk entries incl. stale replicas."""
        with self._lock:
            return sum(m.length for m in self._mapping.values())

    def state_dict(self) -> dict:
        """Serializable snapshot of mapping + free pool (for SnapshotManager)."""
        with self._lock:
            return {
                "mapping": {
                    pid: (m.length, list(m.blocks)) for pid, m in self._mapping.items()
                },
                "free": list(self._free),
                "pre_release": list(self._pre_release),
            }

    def load_state_dict(self, state: dict) -> None:
        """Restore mapping + free pool from a snapshot.

        The state is cross-checked before it is installed: every block id
        must fit the device geometry and no block may be claimed twice
        (by two postings, or by a posting and the free pool). A snapshot
        that passes its CRC footer but fails these checks describes a
        device the controller cannot safely write to — raising here turns
        silent future corruption into an explicit recovery failure.
        """
        mapping = {
            int(pid): _PostingMeta(int(length), [int(b) for b in blocks])
            for pid, (length, blocks) in state["mapping"].items()
        }
        free = deque(int(b) for b in state["free"])
        pre_release = [int(b) for b in state.get("pre_release", [])]

        claimed: set[int] = set()
        def _claim(block_id: int, owner: str) -> None:
            if not 0 <= block_id < self.ssd.num_blocks:
                raise StorageError(
                    f"snapshot state references block {block_id} outside the "
                    f"device geometry [0, {self.ssd.num_blocks})"
                )
            if block_id in claimed:
                raise StorageError(
                    f"snapshot state claims block {block_id} twice "
                    f"(second claim by {owner})"
                )
            claimed.add(block_id)

        for pid, meta in mapping.items():
            for block_id in meta.blocks:
                _claim(block_id, f"posting {pid}")
        for block_id in free:
            _claim(block_id, "free pool")
        for block_id in pre_release:
            _claim(block_id, "pre-release buffer")

        with self._lock:
            self._mapping = mapping
            self._free = free
            self._pre_release = pre_release
