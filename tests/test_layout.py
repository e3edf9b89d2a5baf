"""Tests for the posting/block codec."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantize import make_quantizer
from repro.storage.layout import PostingCodec, PostingData
from repro.util.errors import StorageError

DIM = 16


def random_posting(rng, n):
    return PostingData.from_rows(
        ids=rng.integers(0, 1 << 40, size=n),
        versions=rng.integers(0, 128, size=n).astype(np.uint8),
        vectors=rng.normal(size=(n, DIM)).astype(np.float32),
    )


class TestPostingData:
    def test_length_consistency_enforced(self):
        with pytest.raises(ValueError):
            PostingData(
                ids=np.zeros(2, dtype=np.int64),
                versions=np.zeros(1, dtype=np.uint8),
                vectors=np.zeros((2, DIM), dtype=np.float32),
            )

    def test_from_rows_single_vector(self):
        data = PostingData.from_rows([1], [0], np.ones(DIM))
        assert len(data) == 1
        assert data.vectors.shape == (1, DIM)

    def test_empty(self):
        data = PostingData.empty(DIM)
        assert len(data) == 0
        assert data.vectors.shape == (0, DIM)

    def test_select_and_concat(self, rng):
        data = random_posting(rng, 10)
        mask = np.zeros(10, dtype=bool)
        mask[[2, 5]] = True
        sub = data.select(mask)
        assert list(sub.ids) == [data.ids[2], data.ids[5]]
        merged = sub.concat(data.select(~mask))
        assert len(merged) == 10

    def test_owned_is_noop_for_owning_columns(self, rng):
        data = PostingData(
            ids=np.arange(6, dtype=np.int64),
            versions=np.zeros(6, dtype=np.uint8),
            vectors=rng.normal(size=(6, DIM)).astype(np.float32),
        )
        assert data.owns_memory()
        assert data.owned() is data

    def test_owned_copies_views(self, rng):
        data = PostingData(
            ids=np.arange(6, dtype=np.int64),
            versions=np.zeros(6, dtype=np.uint8),
            vectors=rng.normal(size=(6, DIM)).astype(np.float32),
        )
        view = PostingData(
            ids=data.ids[:4], versions=data.versions[:4], vectors=data.vectors[:4]
        )
        assert not view.owns_memory()
        owned = view.owned()
        assert owned.owns_memory()
        data.ids[:] = -1
        assert not np.array_equal(owned.ids, data.ids[:4])


class TestCodec:
    def test_entry_packing_geometry(self):
        codec = PostingCodec(dim=DIM, block_size=512)
        record_size = 8 + 1 + 4 * DIM
        assert codec.sections == ((512 // record_size, record_size),)
        assert codec.blocks_needed(0) == 0
        assert codec.blocks_needed(1) == 1
        epb = 512 // record_size
        assert codec.blocks_needed(epb) == 1
        assert codec.blocks_needed(epb + 1) == 2

    def test_block_too_small_for_entry(self):
        with pytest.raises(StorageError):
            PostingCodec(dim=1024, block_size=64)

    def test_roundtrip(self, rng):
        codec = PostingCodec(dim=DIM, block_size=512)
        data = random_posting(rng, 23)
        payloads = codec.encode(data)
        assert len(payloads) == codec.blocks_needed(23)
        decoded = codec.decode(payloads, 23)
        np.testing.assert_array_equal(decoded.ids, data.ids)
        np.testing.assert_array_equal(decoded.versions, data.versions)
        np.testing.assert_array_equal(decoded.vectors, data.vectors)

    def test_roundtrip_empty(self):
        codec = PostingCodec(dim=DIM, block_size=512)
        assert codec.encode(PostingData.empty(DIM)) == []
        assert len(codec.decode([], 0)) == 0

    def test_decode_insufficient_blocks(self, rng):
        codec = PostingCodec(dim=DIM, block_size=512)
        data = random_posting(rng, 30)
        payloads = codec.encode(data)
        with pytest.raises(StorageError):
            codec.decode(payloads[:-1], 30)

    def test_no_entry_spans_blocks(self, rng):
        """Every block payload holds whole entries only (APPEND invariant)."""
        codec = PostingCodec(dim=DIM, block_size=512)
        data = random_posting(rng, 50)
        (_, record_size), = codec.sections
        for payload in codec.encode(data):
            assert len(payload) % record_size == 0

    @given(st.integers(1, 120))
    @settings(max_examples=30)
    def test_roundtrip_property(self, n):
        rng = np.random.default_rng(n)
        codec = PostingCodec(dim=DIM, block_size=512)
        data = random_posting(rng, n)
        decoded = codec.decode(codec.encode(data), n)
        np.testing.assert_array_equal(decoded.ids, data.ids)
        np.testing.assert_array_equal(decoded.vectors, data.vectors)

    def test_decode_ignores_padding_in_tail(self, rng):
        """Tail block padding (zeros) never leaks into decoded entries."""
        codec = PostingCodec(dim=DIM, block_size=512)
        data = random_posting(rng, 1)
        payloads = codec.encode(data)
        padded = [payloads[0] + b"\xff" * 16]
        decoded = codec.decode(padded, 1)
        assert len(decoded) == 1
        np.testing.assert_array_equal(decoded.ids, data.ids)


# (layout, dim, block size, entries) -> (sha256 of the joined encode()
# payloads, block count). Geometry 8/128 with 23 entries leaves a partial
# tail block in every section of every layout; 32/4096 with 96 entries
# fills the vector section's tail exactly.
ON_DISK_FORMAT = {
    ("exact", 8, 128, 23): ("f325e6958727b23f0dfa0aaa330ba2643ee70b4165719322437ae622e46e344e", 8),
    ("sq8", 8, 128, 23): ("4426bfa57c0a7cb65c3e1446144263e4cb0e52d5754c6b38daefc5433aaaf063", 10),
    ("pq", 8, 128, 23): ("fab16d4f24baeef6317a08767e59061a4619e300124b2fe8dc1889f05d9ba39d", 9),
    ("exact", 32, 4096, 96): ("f7480cc29b1c0833d894203f1e3f1d1b2c8a738d13eb016040e17edc636ff4cc", 4),
    ("sq8", 32, 4096, 96): ("cf71337bcc9cf0920727dc19ba17a7629c5d367c6794c3c02e246c5dd95a9403", 4),
    ("pq", 32, 4096, 96): ("39c9f1591d2a14830c5e404f3a85f0a277ad76765b826c0b869ae849f46ddbe3", 4),
}


class TestOnDiskFormat:
    """Raw block bytes of seeded postings, pinned.

    The other codec tests check that what is encoded decodes again; a
    layout that changed but stayed self-consistent would pass them all and
    still misread every file-backed device and snapshot written
    before it. These literals are the oracle for that: a change to the
    codec must reproduce them byte for byte. Re-recording them
    (``PYTHONPATH=src python tests/test_layout.py`` prints the table) is
    a format change and needs a stated reason.
    """

    @staticmethod
    def _encode(layout, dim, block_size, n):
        rng = np.random.default_rng(dim * 1000 + n)
        train = rng.normal(size=(64, dim)).astype(np.float32)
        quantizer = None
        if layout != "exact":
            quantizer = make_quantizer(
                layout, dim, subspaces=4, codebook_size=16
            ).fit(train, np.random.default_rng(n))
        codec = PostingCodec(dim, block_size, quantizer)
        data = PostingData.from_rows(
            ids=rng.integers(0, 1 << 40, size=n),
            versions=rng.integers(0, 128, size=n),
            vectors=rng.normal(size=(n, dim)).astype(np.float32),
        )
        return codec.encode(data)

    @staticmethod
    def pin(case):
        payloads = TestOnDiskFormat._encode(*case)
        return hashlib.sha256(b"".join(payloads)).hexdigest(), len(payloads)

    @pytest.mark.parametrize("case", list(ON_DISK_FORMAT), ids=lambda case: "-".join(map(str, case)))
    def test_encode_bytes_pinned(self, case):
        assert self.pin(case) == ON_DISK_FORMAT[case]


if __name__ == "__main__":
    print("ON_DISK_FORMAT = {")
    for case in ON_DISK_FORMAT:
        layout, dim, block_size, n = case
        digest, blocks = TestOnDiskFormat.pin(case)
        print(f'    ("{layout}", {dim}, {block_size}, {n}): ("{digest}", {blocks}),')
    print("}")
