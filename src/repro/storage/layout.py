"""On-"disk" layout of postings (paper §4.3, Storage Data Layout).

A posting is a list of ``<vector id, version number, raw vector>`` tuples
packed into fixed-size SSD blocks. Entries never span a block boundary so
APPEND can rewrite only the tail block, which is the property the paper's
append-optimized layout depends on.

Two codecs share this contract:

* :class:`PostingCodec` (layout v1) — the classic exact layout, one
  ``<id, version, vector>`` record per entry.
* :class:`QuantizedPostingCodec` (layout v2, ``sectioned = True``) — a
  two-section layout for compressed scans (docs/quantization.md): a
  *code section* of ``<id, version, quantized code>`` records followed by
  a *vector section* of raw float32 rows. Scans read only the code-block
  prefix; the rerank step reads just the vector blocks covering the
  surviving rows. Both sections keep the never-span-a-block property, so
  APPEND still rewrites at most one partial tail block per section.

Every decode goes through :func:`join_valid`: the *valid byte prefix* of
each block is joined into one record stream (so device blocks padded to
the block size and raw ``encode()`` output read the same), viewed once
through the structured dtype, and each column copied out once. A batch
of postings decodes into one :class:`PostingArena` — compact columns
plus a ``bounds`` offset array — which the read path carries uncopied
through live filter, scan, rerank and top-k; ``arena[pid]`` slices a
:class:`PostingData` / :class:`PostingCodes` out of it on demand.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.util.errors import StorageError


@dataclass
class PostingData:
    """Decoded in-memory view of one posting.

    ``ids`` are int64 vector ids, ``versions`` the uint8 version bytes
    captured at append time, ``vectors`` the raw float32 rows. ``codes``
    is the optional uint8 quantized-code matrix carried by the sectioned
    layout (None under the exact v1 codec). All present columns share the
    same length.
    """

    ids: np.ndarray
    versions: np.ndarray
    vectors: np.ndarray
    codes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (len(self.ids) == len(self.versions) == len(self.vectors)):
            raise ValueError("PostingData arrays must have equal length")
        if self.codes is not None and len(self.codes) != len(self.ids):
            raise ValueError("PostingData codes must match the other columns")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def empty(cls, dim: int) -> "PostingData":
        return cls(
            ids=np.empty(0, dtype=np.int64),
            versions=np.empty(0, dtype=np.uint8),
            vectors=np.empty((0, dim), dtype=np.float32),
        )

    @classmethod
    def from_rows(cls, ids, versions, vectors, codes=None) -> "PostingData":
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        if codes is not None:
            codes = np.asarray(codes, dtype=np.uint8)
            if codes.ndim == 1:
                codes = codes.reshape(1, -1)
        return cls(
            ids=np.asarray(ids, dtype=np.int64).reshape(-1),
            versions=np.asarray(versions, dtype=np.uint8).reshape(-1),
            vectors=vectors,
            codes=codes,
        )

    def owns_memory(self) -> bool:
        """True when every column owns its buffer (no views into arenas)."""
        return (
            self.ids.base is None
            and self.versions.base is None
            and self.vectors.base is None
            and (self.codes is None or self.codes.base is None)
        )

    def owned(self) -> "PostingData":
        """Self if all columns own their memory; otherwise a deep copy.

        A :class:`PostingArena` hands out postings whose columns are
        zero-copy slices of its shared columns. Anything that holds a
        posting beyond the current call (the block cache, most
        importantly) must take ownership first, or a later mutation of
        the arena silently rewrites the held posting.
        """
        if self.owns_memory():
            return self
        return PostingData(
            ids=self.ids.copy(),
            versions=self.versions.copy(),
            vectors=self.vectors.copy(),
            codes=None if self.codes is None else self.codes.copy(),
        )

    def select(self, mask: np.ndarray) -> "PostingData":
        """New PostingData containing only rows where ``mask`` is True."""
        return PostingData(
            ids=self.ids[mask],
            versions=self.versions[mask],
            vectors=self.vectors[mask],
            codes=None if self.codes is None else self.codes[mask],
        )

    def concat(self, other: "PostingData") -> "PostingData":
        # The code column survives only when both sides carry it; the
        # quantized codec re-encodes a missing column deterministically at
        # encode time, so dropping it here never loses information.
        if self.codes is not None and other.codes is not None:
            codes = np.concatenate([self.codes, other.codes])
        else:
            codes = None
        return PostingData(
            ids=np.concatenate([self.ids, other.ids]),
            versions=np.concatenate([self.versions, other.versions]),
            vectors=np.vstack([self.vectors, other.vectors]),
            codes=codes,
        )


@dataclass
class PostingCodes:
    """Code-section view of one posting: ids, versions, quantized codes.

    What a compressed scan works with — no raw vectors attached. Shares
    the column discipline of :class:`PostingData` so version-map helpers
    (``live_view`` / ``live_mask``) work on either.
    """

    ids: np.ndarray
    versions: np.ndarray
    codes: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.ids) == len(self.versions) == len(self.codes)):
            raise ValueError("PostingCodes arrays must have equal length")

    def __len__(self) -> int:
        return len(self.ids)

    def select(self, mask: np.ndarray) -> "PostingCodes":
        return PostingCodes(
            ids=self.ids[mask], versions=self.versions[mask], codes=self.codes[mask]
        )


class PostingArena(Mapping):
    """Columnar decode of a batch of postings: the unit of the read path.

    ``ids`` / ``versions`` / ``vectors`` / ``codes`` are compact columns
    over every entry of every posting, back to back in ``posting_ids``
    order; posting ``i`` owns rows ``bounds[i]:bounds[i + 1]``. A
    code-section fetch has no ``vectors``, an exact-layout fetch no
    ``codes``; ``rows`` is whichever the scan scores. The searcher works
    on the columns directly; as a mapping, ``arena[pid]`` / ``.items()``
    slice out one :class:`PostingData` (:class:`PostingCodes` when there
    are no vectors) per posting, views into the shared columns.
    """

    __slots__ = ("posting_ids", "bounds", "ids", "versions", "vectors", "codes", "_slots")

    def __init__(self, posting_ids, lengths, ids, versions, vectors=None, codes=None):
        self.posting_ids = list(range(len(lengths))) if posting_ids is None else posting_ids
        self.bounds = np.fromiter(accumulate(lengths, initial=0), np.intp, len(lengths) + 1)
        self.ids = ids
        self.versions = versions
        self.vectors = vectors
        self.codes = codes
        self._slots: dict[int, int] | None = None

    @classmethod
    def from_postings(cls, items: list[tuple[int, PostingData]], dim: int) -> "PostingArena":
        """Assemble an arena by copying whole postings (the cache's path)."""
        datas = [data for _, data in items] or [PostingData.empty(dim)]
        with_codes = all(data.codes is not None for data in datas)
        return cls(
            [pid for pid, _ in items],
            [len(data) for _, data in items],
            np.concatenate([data.ids for data in datas]),
            np.concatenate([data.versions for data in datas]),
            np.concatenate([data.vectors for data in datas]),
            np.concatenate([data.codes for data in datas]) if with_codes else None,
        )

    @property
    def rows(self) -> np.ndarray:
        """The column a scan scores: exact vectors, else quantized codes."""
        return self.codes if self.vectors is None else self.vectors

    @property
    def slots(self) -> dict[int, int]:
        """posting id -> position in ``posting_ids`` / ``bounds``."""
        if self._slots is None:
            self._slots = {pid: i for i, pid in enumerate(self.posting_ids)}
        return self._slots

    def __len__(self) -> int:
        return len(self.posting_ids)

    def __iter__(self):
        return iter(self.posting_ids)

    def __contains__(self, posting_id) -> bool:
        return posting_id in self.slots

    def __getitem__(self, posting_id: int):
        slot = self.slots[posting_id]
        rows = slice(self.bounds[slot], self.bounds[slot + 1])
        codes = None if self.codes is None else self.codes[rows]
        if self.vectors is None:
            return PostingCodes(self.ids[rows], self.versions[rows], codes)
        return PostingData(self.ids[rows], self.versions[rows], self.vectors[rows], codes)


def join_valid(
    payloads: list[bytes], lengths: list[int], per_block: int, entry_size: int
) -> bytes:
    """One contiguous record stream out of a flat list of block payloads.

    ``payloads`` holds the blocks of consecutive record runs back to
    back: run ``i`` has ``lengths[i]`` records of ``entry_size`` bytes,
    ``per_block`` to a block, so each of its blocks is full except the
    last. Only the valid byte prefix of every block is joined — padding
    never enters the stream — which makes device blocks (padded to the
    block size) and raw ``encode()`` output (tail payload cut short) the
    same input. Too few blocks, or a payload shorter than its valid
    prefix, raise :class:`StorageError`.
    """
    full = per_block * entry_size
    pieces: list[bytes] = []
    cursor = entries = 0
    for n in lengths:
        if n <= 0:
            continue
        last = cursor + (n - 1) // per_block
        for payload in payloads[cursor:last]:
            pieces.append(payload[:full])
        if last < len(payloads):
            pieces.append(payloads[last][: (n - (last - cursor) * per_block) * entry_size])
        cursor = last + 1
        entries += n
    if cursor > len(payloads):
        raise StorageError(
            f"need {cursor} blocks for {entries} entries, got {len(payloads)}"
        )
    raw = b"".join(pieces)
    if len(raw) != entries * entry_size:
        raise StorageError(
            f"block payloads hold {len(raw)} valid bytes, {entries} entries "
            f"need {entries * entry_size}"
        )
    return raw


def cut_blocks(raw: bytes, block_bytes: int) -> list[bytes]:
    """A record stream cut into block payloads of ``block_bytes`` (a
    whole number of records); only the last may be short."""
    return [raw[at : at + block_bytes] for at in range(0, len(raw), block_bytes)]


class PostingCodec:
    """Packs posting entries into block payloads and back.

    The codec is parameterized by vector dimensionality and block size; one
    codec instance is shared by the whole index.
    """

    ID_BYTES = 8
    VERSION_BYTES = 1

    def __init__(self, dim: int, block_size: int) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.block_size = block_size
        self.entry_size = self.ID_BYTES + self.VERSION_BYTES + 4 * dim
        self.entries_per_block = block_size // self.entry_size
        if self.entries_per_block < 1:
            raise StorageError(
                f"block size {block_size} cannot hold one {self.entry_size}-byte "
                f"entry (dim={dim})"
            )
        self._dtype = np.dtype(
            [("id", "<i8"), ("version", "u1"), ("vec", "<f4", (dim,))]
        )
        # (records per block, record bytes) of each section of a posting's
        # block list, in block order — what APPEND needs to continue them.
        self.sections = ((self.entries_per_block, self.entry_size),)

    def blocks_needed(self, num_entries: int) -> int:
        """Blocks required to store ``num_entries`` entries."""
        if num_entries <= 0:
            return 0
        return -(-num_entries // self.entries_per_block)

    def scan_blocks_needed(self, num_entries: int) -> int:
        """Blocks a scan must read. The exact layout scans everything."""
        return self.blocks_needed(num_entries)

    def encode(self, data: PostingData) -> list[bytes]:
        """Encode a posting into a list of block payloads."""
        n = len(data)
        if n == 0:
            return []
        packed = np.zeros(n, dtype=self._dtype)
        packed["id"] = data.ids
        packed["version"] = data.versions
        packed["vec"] = data.vectors
        return cut_blocks(packed.tobytes(), self.entries_per_block * self.entry_size)

    def _decode_columns(self, payloads: list[bytes], lengths: list[int]):
        """``(ids, versions, vectors)`` of every entry in the block list:
        one join of the valid block prefixes, one structured view, and one
        copy per column — which detaches it from the read-only buffer and
        makes it contiguous for the distance kernels downstream."""
        raw = join_valid(payloads, lengths, self.entries_per_block, self.entry_size)
        packed = np.frombuffer(raw, dtype=self._dtype)
        return packed["id"].copy(), packed["version"].copy(), packed["vec"].copy()

    def decode(self, payloads: list[bytes], num_entries: int) -> PostingData:
        """Decode block payloads back into a posting of ``num_entries``."""
        return PostingData(*self._decode_columns(payloads, [num_entries]))

    def decode_batch(
        self, payloads: list[bytes], num_entries_list: list[int], posting_ids=None
    ) -> PostingArena:
        """Decode many postings from one flat block list into one arena.

        ``payloads`` holds the blocks of every posting back to back, in
        the order of ``num_entries_list``; ``posting_ids`` (default
        ``0..n-1``) name them. ``arena[pid]`` is bit-identical to a
        per-posting :meth:`decode`.
        """
        columns = self._decode_columns(payloads, num_entries_list)
        return PostingArena(posting_ids, num_entries_list, *columns)

    def tail_fill(self, num_entries: int) -> int:
        """How many entries sit in the (possibly partial) tail block."""
        if num_entries == 0:
            return 0
        rem = num_entries % self.entries_per_block
        return rem if rem != 0 else self.entries_per_block


class QuantizedPostingCodec:
    """Two-section posting layout (v2): code blocks, then vector blocks.

    Section 1 packs ``<id, version, code>`` records (``code_bytes`` uint8
    per entry); section 2 packs the raw float32 rows, several per block.
    Each section starts on a block boundary and entries never span a
    block, so:

    * a compressed scan reads only ``code_blocks_needed(n)`` blocks —
      the IO win over the exact layout grows with ``dim / code_bytes``;
    * the rerank step reads just the vector blocks covering surviving
      rows (``row // vectors_per_block``);
    * APPEND rewrites at most one partial tail block *per section*.

    The codec owns the fitted quantizer: ``encode`` computes the code
    column itself whenever ``data.codes`` is None. Encoding is a pure
    function of the fitted state, so every rewrite path (split, merge,
    reassign, flush, GC) stays code/vector coherent without knowing the
    layout exists — the invariant auditor checks exactly that.
    """

    ID_BYTES = 8
    VERSION_BYTES = 1
    sectioned = True

    def __init__(self, dim: int, block_size: int, quantizer) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if quantizer.dim != dim:
            raise StorageError(
                f"quantizer dim {quantizer.dim} does not match codec dim {dim}"
            )
        self.dim = dim
        self.block_size = block_size
        self.quantizer = quantizer
        self.code_bytes = int(quantizer.code_bytes)
        self.code_entry_size = self.ID_BYTES + self.VERSION_BYTES + self.code_bytes
        self.code_entries_per_block = block_size // self.code_entry_size
        self.vector_entry_size = 4 * dim
        self.vectors_per_block = block_size // self.vector_entry_size
        if self.code_entries_per_block < 1 or self.vectors_per_block < 1:
            raise StorageError(
                f"block size {block_size} cannot hold one entry of the "
                f"sectioned layout (dim={dim}, code_bytes={self.code_bytes})"
            )
        self._code_dtype = np.dtype(
            [("id", "<i8"), ("version", "u1"), ("code", "u1", (self.code_bytes,))]
        )
        self.sections = (
            (self.code_entries_per_block, self.code_entry_size),
            (self.vectors_per_block, self.vector_entry_size),
        )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def code_blocks_needed(self, num_entries: int) -> int:
        if num_entries <= 0:
            return 0
        return -(-num_entries // self.code_entries_per_block)

    def vector_blocks_needed(self, num_entries: int) -> int:
        if num_entries <= 0:
            return 0
        return -(-num_entries // self.vectors_per_block)

    def blocks_needed(self, num_entries: int) -> int:
        """Total blocks for a posting: code section + vector section."""
        return self.code_blocks_needed(num_entries) + self.vector_blocks_needed(
            num_entries
        )

    def scan_blocks_needed(self, num_entries: int) -> int:
        """A compressed scan touches only the code-block prefix."""
        return self.code_blocks_needed(num_entries)

    def vector_tail_fill(self, num_entries: int) -> int:
        if num_entries == 0:
            return 0
        rem = num_entries % self.vectors_per_block
        return rem if rem != 0 else self.vectors_per_block

    # ------------------------------------------------------------------
    # encode
    # ------------------------------------------------------------------
    def codes_for(self, data: PostingData) -> np.ndarray:
        """The posting's code column, computing it if absent."""
        if data.codes is not None:
            codes = np.asarray(data.codes, dtype=np.uint8)
        else:
            codes = self.quantizer.encode(data.vectors)
        if codes.shape != (len(data), self.code_bytes):
            raise StorageError(
                f"code column shape {codes.shape} != "
                f"({len(data)}, {self.code_bytes})"
            )
        return codes

    def encode_codes_section(
        self, ids: np.ndarray, versions: np.ndarray, codes: np.ndarray
    ) -> list[bytes]:
        """Pack code records into block payloads (section starts a block)."""
        n = len(ids)
        if n == 0:
            return []
        packed = np.zeros(n, dtype=self._code_dtype)
        packed["id"] = ids
        packed["version"] = versions
        packed["code"] = codes
        return cut_blocks(
            packed.tobytes(), self.code_entries_per_block * self.code_entry_size
        )

    def encode_vectors_section(self, vectors: np.ndarray) -> list[bytes]:
        """Pack raw float32 rows into block payloads."""
        n = len(vectors)
        if n == 0:
            return []
        raw = np.ascontiguousarray(vectors, dtype=np.float32).tobytes()
        return cut_blocks(raw, self.vectors_per_block * self.vector_entry_size)

    def encode(self, data: PostingData) -> list[bytes]:
        """Encode a posting: code-section payloads, then vector payloads."""
        if len(data) == 0:
            return []
        codes = self.codes_for(data)
        return self.encode_codes_section(
            data.ids, data.versions, codes
        ) + self.encode_vectors_section(data.vectors)

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def _decode_code_columns(self, payloads: list[bytes], lengths: list[int]):
        """``(ids, versions, codes)`` of every code record in the block list."""
        raw = join_valid(
            payloads, lengths, self.code_entries_per_block, self.code_entry_size
        )
        packed = np.frombuffer(raw, dtype=self._code_dtype)
        return packed["id"].copy(), packed["version"].copy(), packed["code"].copy()

    def decode_codes(self, payloads: list[bytes], num_entries: int) -> PostingCodes:
        """Decode code-section payloads into a :class:`PostingCodes`."""
        return PostingCodes(*self._decode_code_columns(payloads, [num_entries]))

    def decode_codes_batch(
        self, payloads: list[bytes], num_entries_list: list[int], posting_ids=None
    ) -> PostingArena:
        """Decode many code sections from one flat block list into one
        arena without vectors (see :meth:`PostingCodec.decode_batch`)."""
        ids, versions, codes = self._decode_code_columns(payloads, num_entries_list)
        return PostingArena(posting_ids, num_entries_list, ids, versions, codes=codes)

    def decode_vector_block(self, payload: bytes, count: int) -> np.ndarray:
        """Decode one vector-section block into ``(count, dim)`` float32."""
        return np.frombuffer(
            payload, dtype="<f4", count=count * self.dim
        ).reshape(count, self.dim)

    def decode_vector_rows(self, payloads: list[bytes], lengths: list[int]) -> np.ndarray:
        """Read-only ``(sum(lengths), dim)`` view over the joined vector rows."""
        raw = join_valid(payloads, lengths, self.vectors_per_block, self.vector_entry_size)
        return np.frombuffer(raw, dtype="<f4").reshape(-1, self.dim)

    def decode(self, payloads: list[bytes], num_entries: int) -> PostingData:
        """Decode full-posting payloads (both sections) into PostingData."""
        split = self.code_blocks_needed(num_entries)
        ids, versions, codes = self._decode_code_columns(payloads[:split], [num_entries])
        vectors = self.decode_vector_rows(payloads[split:], [num_entries])
        return PostingData(ids, versions, vectors.copy(), codes)

    def decode_batch(
        self, payloads: list[bytes], num_entries_list: list[int], posting_ids=None
    ) -> PostingArena:
        """Decode many full postings (both sections each) into one arena."""
        code_blocks: list[bytes] = []
        vector_blocks: list[bytes] = []
        cursor = 0
        for n in num_entries_list:
            split = cursor + self.code_blocks_needed(n)
            stop = split + self.vector_blocks_needed(n)
            code_blocks += payloads[cursor:split]
            vector_blocks += payloads[split:stop]
            cursor = stop
        ids, versions, codes = self._decode_code_columns(code_blocks, num_entries_list)
        vectors = self.decode_vector_rows(vector_blocks, num_entries_list)
        return PostingArena(
            posting_ids, num_entries_list, ids, versions, vectors.copy(), codes
        )


def make_codec(config, quantizer=None):
    """The posting codec an ``SPFreshConfig`` asks for: the sectioned v2
    layout around the fitted ``quantizer`` when quantization is enabled,
    the exact v1 layout otherwise."""
    if config.quantize.enabled:
        return QuantizedPostingCodec(config.dim, config.block_size, quantizer)
    return PostingCodec(config.dim, config.block_size)
