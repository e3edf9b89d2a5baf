"""On-"disk" layout of postings (paper §4.3, Storage Data Layout).

A posting is a list of ``<vector id, version number, raw vector>`` tuples
packed into fixed-size SSD blocks. Entries never span a block boundary so
APPEND can rewrite only the tail block, which is the property the paper's
append-optimized layout depends on.

One codec, :class:`PostingCodec`, whose layout is its tuple of
*sections*, each a run of fixed-size records that starts on a block
boundary. The exact layout is one ``<id, version, vector>`` section; a
quantized index (docs/quantization.md) stores a *code section* of
``<id, version, quantized code>`` records followed by a *vector section*
of raw float32 rows. Scans read only section 0; the rerank step reads just
the last section's blocks covering the surviving rows. APPEND rewrites at
most one partial tail block per section.

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
    is the optional uint8 quantized-code matrix carried by the quantized
    layout (None under the exact one). All present columns share the
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
    payloads: list[bytes], lengths: list[int], per_block: int, record_size: int
) -> bytes:
    """One contiguous record stream out of a flat list of block payloads.

    ``payloads`` holds the blocks of consecutive record runs back to
    back: run ``i`` has ``lengths[i]`` records of ``record_size`` bytes,
    ``per_block`` to a block, so each of its blocks is full except the
    last. Only the valid byte prefix of every block is joined — padding
    never enters the stream — which makes device blocks (padded to the
    block size) and raw ``encode()`` output (tail payload cut short) the
    same input. Too few blocks, or a payload shorter than its valid
    prefix, raise :class:`StorageError`.
    """
    full = per_block * record_size
    pieces: list[bytes] = []
    cursor = entries = 0
    for n in lengths:
        if n <= 0:
            continue
        last = cursor + (n - 1) // per_block
        for payload in payloads[cursor:last]:
            pieces.append(payload[:full])
        if last < len(payloads):
            pieces.append(payloads[last][: (n - (last - cursor) * per_block) * record_size])
        cursor = last + 1
        entries += n
    if cursor > len(payloads):
        raise StorageError(
            f"need {cursor} blocks for {entries} entries, got {len(payloads)}"
        )
    raw = b"".join(pieces)
    if len(raw) != entries * record_size:
        raise StorageError(
            f"block payloads hold {len(raw)} valid bytes, {entries} entries "
            f"need {entries * record_size}"
        )
    return raw


def cut_blocks(raw: bytes, block_bytes: int) -> list[bytes]:
    """A record stream cut into block payloads of ``block_bytes`` (a
    whole number of records); only the last may be short."""
    return [raw[at : at + block_bytes] for at in range(0, len(raw), block_bytes)]


class PostingCodec:
    """Packs posting entries into block payloads and back.

    A posting's blocks hold its *sections* in order. A section is a run
    of fixed-size records, ``per_block`` to a block: it starts on a block
    boundary and no record spans a block, so APPEND rewrites at most one
    partial tail block per section. ``sections`` lists them as
    ``((per_block, record_bytes), ...)``:

    * no ``quantizer`` — one section of ``<id, version, vector>``
      records, the paper's layout;
    * a fitted ``quantizer`` — ``<id, version, code>`` records, then the
      raw float32 rows (docs/quantization.md). Scans read section 0; the
      rerank reads rows of the last section.

    The codec owns the quantizer and computes the code column whenever
    ``data.codes`` is None. Encoding is a pure function of the fitted
    state, so every rewrite path (split, merge, reassign, flush, GC)
    stays code/vector coherent without knowing the layout exists. A
    ``sections`` argument counts leading sections (None: all of them).
    One codec instance is shared by the whole index.
    """

    def __init__(self, dim: int, block_size: int, quantizer=None) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if quantizer is not None and quantizer.dim != dim:
            raise StorageError(
                f"quantizer dim {quantizer.dim} does not match codec dim {dim}"
            )
        self.dim = dim
        self.block_size = block_size
        self.quantizer = quantizer
        # One record dtype per section, its fields named after the
        # PostingData columns they carry.
        head = [("ids", "<i8"), ("versions", "u1")]
        vectors = [("vectors", "<f4", (dim,))]
        if quantizer is None:
            fields = [head + vectors]
        else:
            fields = [head + [("codes", "u1", (int(quantizer.code_bytes),))], vectors]
        self._records = [np.dtype(section) for section in fields]
        self.sections = tuple(
            (block_size // record.itemsize, record.itemsize) for record in self._records
        )
        if any(per_block < 1 for per_block, _ in self.sections):
            raise StorageError(
                f"block size {block_size} cannot hold one record of each section "
                f"(record bytes {[size for _, size in self.sections]}, dim={dim})"
            )

    def blocks_needed(self, num_entries: int, sections: int | None = None) -> int:
        """Blocks holding ``num_entries`` entries in the leading ``sections``."""
        blocks = 0
        for per_block, _ in self.sections[:sections]:
            blocks -= -num_entries // per_block
        return blocks

    def codes_for(self, data: PostingData) -> np.ndarray:
        """The posting's code column, computing it if absent."""
        if data.codes is not None:
            codes = np.asarray(data.codes, dtype=np.uint8)
        else:
            codes = self.quantizer.encode(data.vectors)
        if codes.shape != (len(data), self.quantizer.code_bytes):
            raise StorageError(
                f"code column shape {codes.shape} != "
                f"({len(data)}, {self.quantizer.code_bytes})"
            )
        return codes

    def encode(self, data: PostingData) -> list[bytes]:
        """Encode a posting: each section's records, cut into blocks."""
        n = len(data)
        if n == 0:
            return []
        columns = {"ids": data.ids, "versions": data.versions, "vectors": data.vectors}
        if self.quantizer is not None:
            columns["codes"] = self.codes_for(data)
        payloads: list[bytes] = []
        for record, (per_block, size) in zip(self._records, self.sections):
            packed = np.zeros(n, dtype=record)
            for name in record.names:
                packed[name] = columns[name]
            payloads += cut_blocks(packed.tobytes(), per_block * size)
        return payloads

    def _columns(self, payloads: list[bytes], lengths: list[int], sections=None) -> dict:
        """Every column of the leading ``sections``: per section one join
        of the valid block prefixes, one structured view, and one copy per
        column — which detaches it from the read-only buffer and makes it
        contiguous for the distance kernels downstream."""
        geometry = self.sections[:sections]
        runs = [payloads]
        if len(geometry) > 1:
            # Each posting's sections lie back to back: regroup the blocks
            # into one run per section.
            runs = [[] for _ in geometry]
            cursor = 0
            for n in lengths:
                for run, (per_block, _) in zip(runs, geometry):
                    stop = cursor - (-n // per_block)
                    run += payloads[cursor:stop]
                    cursor = stop
        columns = {}
        for run, record, (per_block, size) in zip(runs, self._records, geometry):
            packed = np.frombuffer(join_valid(run, lengths, per_block, size), dtype=record)
            for name in record.names:
                columns[name] = packed[name].copy()
        return columns

    def decode(self, payloads: list[bytes], num_entries: int) -> PostingData:
        """Decode one whole posting's payloads into owned columns."""
        return PostingData(**self._columns(payloads, [num_entries]))

    def decode_batch(
        self, payloads: list[bytes], lengths: list[int], posting_ids=None, sections=None
    ) -> PostingArena:
        """Decode many postings from one flat block list into one arena.

        ``payloads`` holds the blocks of the leading ``sections`` of every
        posting, posting after posting in the order of ``lengths``;
        ``posting_ids`` (default ``0..n-1``) name them. ``arena[pid]`` is
        bit-identical to a per-posting :meth:`decode` — without vectors
        when only the code section was read.
        """
        return PostingArena(posting_ids, lengths, **self._columns(payloads, lengths, sections))

    def section_view(
        self, payloads: list[bytes], lengths: list[int], section: int = -1
    ) -> np.ndarray:
        """Read-only record view over one section's joined blocks: runs of
        ``lengths[i]`` records, each run's blocks full but its last. The
        rerank gathers its rows straight out of the last section."""
        per_block, size = self.sections[section]
        raw = join_valid(payloads, lengths, per_block, size)
        return np.frombuffer(raw, dtype=self._records[section])
