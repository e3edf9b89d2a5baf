"""Property tests for the vectorized hot-path engine's bit-identity contracts.

The batched kernels and search paths promise results *bit-identical* to
their scalar counterparts — not merely approximately equal. These tests
pin that contract with hypothesis-generated shapes and adversarial codec
layouts, so any future "optimization" that changes rounding or tie-break
order fails loudly instead of silently moving the perf gate's metrics.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centroids.brute import BruteForceCentroidIndex
from repro.centroids.graph import GraphCentroidIndex
from repro.spann.postings import dedup_top_k
from repro.quantize.sq import ScalarQuantizer
from repro.storage.controller import BlockController
from repro.storage.layout import PostingCodec, PostingData
from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.util.distance import pairwise_sq_l2_exact, sq_l2, sq_l2_batch

def _matrix(rng, n, dim):
    return (rng.normal(size=(n, dim)) * 10).astype(np.float32)


class TestKernelBitIdentity:
    @given(st.integers(1, 40), st.integers(1, 48), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sq_l2_batch_matches_scalar_loop(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        points = _matrix(rng, n, dim)
        query = _matrix(rng, 1, dim)[0]
        batched = sq_l2_batch(query, points)
        looped = np.array([sq_l2(query, p) for p in points], dtype=np.float32)
        np.testing.assert_array_equal(batched, looped)

    @given(st.integers(1, 24), st.integers(1, 40), st.integers(1, 32),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pairwise_exact_rows_match_sq_l2_batch(self, nq, npts, dim, seed):
        rng = np.random.default_rng(seed)
        queries = _matrix(rng, nq, dim)
        points = _matrix(rng, npts, dim)
        pair = pairwise_sq_l2_exact(queries, points)
        assert pair.shape == (nq, npts) and pair.dtype == np.float32
        for q in range(nq):
            np.testing.assert_array_equal(pair[q], sq_l2_batch(queries[q], points))

    def test_pairwise_exact_chunked_path_identical(self):
        rng = np.random.default_rng(3)
        queries = _matrix(rng, 17, 8)
        points = _matrix(rng, 23, 8)
        full = pairwise_sq_l2_exact(queries, points)
        # chunk_elems small enough to force several query-axis chunks
        chunked = pairwise_sq_l2_exact(queries, points, chunk_elems=4 * 23 * 8)
        np.testing.assert_array_equal(full, chunked)

    def test_pairwise_exact_rows_do_not_depend_on_the_chunk_bound(self):
        """Maintenance routes hundreds of rows per call; whatever bound the
        kernel runs under, every row is the single-query row."""
        rng = np.random.default_rng(5)
        queries = _matrix(rng, 300, 16)
        points = _matrix(rng, 90, 16)
        whole = pairwise_sq_l2_exact(queries, points, chunk_elems=1 << 62)
        for bound in (1 << 10, 1 << 20):
            chunked = pairwise_sq_l2_exact(queries, points, chunk_elems=bound)
            assert chunked.tobytes() == whole.tobytes()
        assert pairwise_sq_l2_exact(queries, points).tobytes() == whole.tobytes()
        for q in (0, 137, 299):
            np.testing.assert_array_equal(whole[q], sq_l2_batch(queries[q], points))

    def test_pairwise_exact_default_bounds_the_broadcast_temporary(self):
        """2,000 x 400 x 32 is a 98 MiB broadcast taken whole (and was a
        32 MiB one under the old default); the default bound keeps the
        call within a few MiB of its 3 MiB result."""
        import tracemalloc

        rng = np.random.default_rng(6)
        queries = _matrix(rng, 2000, 32)
        points = _matrix(rng, 400, 32)
        tracemalloc.start()
        out = pairwise_sq_l2_exact(queries, points)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert out.shape == (2000, 400)
        assert peak - out.nbytes < 3 * 2**20

    def test_pairwise_exact_empty_shapes(self):
        empty_q = np.empty((0, 4), dtype=np.float32)
        pts = np.ones((3, 4), dtype=np.float32)
        assert pairwise_sq_l2_exact(empty_q, pts).shape == (0, 3)
        assert pairwise_sq_l2_exact(pts, np.empty((0, 4), np.float32)).shape == (3, 0)


@pytest.mark.parametrize("kind", [BruteForceCentroidIndex, GraphCentroidIndex])
class TestSearchBatchParity:
    def _build(self, kind, rng, n, dim):
        index = kind(dim)
        for pid, row in enumerate(_matrix(rng, n, dim)):
            index.add(pid + 10, row)
        return index

    @given(st.integers(1, 60), st.integers(1, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_single(self, kind, n, k, seed):
        rng = np.random.default_rng(seed)
        dim = 8
        index = self._build(kind, rng, n, dim)
        queries = _matrix(rng, 7, dim)
        batched = index.search_batch(queries, k)
        for query, hit in zip(queries, batched):
            single = index.search(query, k)
            np.testing.assert_array_equal(hit.posting_ids, single.posting_ids)
            np.testing.assert_array_equal(hit.distances, single.distances)

    def test_batch_parity_after_churn(self, kind):
        rng = np.random.default_rng(11)
        dim = 6
        index = self._build(kind, rng, 40, dim)
        for pid in range(10, 30):
            index.remove(pid)
        for pid, row in enumerate(_matrix(rng, 15, dim)):
            index.add(pid + 1000, row)
        queries = _matrix(rng, 9, dim)
        for query, hit in zip(queries, index.search_batch(queries, 5)):
            single = index.search(query, 5)
            np.testing.assert_array_equal(hit.posting_ids, single.posting_ids)
            np.testing.assert_array_equal(hit.distances, single.distances)

    def test_batch_on_empty_index(self, kind):
        index = kind(4)
        results = index.search_batch(np.ones((3, 4), dtype=np.float32), 2)
        assert len(results) == 3
        assert all(len(r) == 0 for r in results)


class TestBruteActiveRowShrink:
    def test_active_window_shrinks_under_churn(self):
        rng = np.random.default_rng(0)
        index = BruteForceCentroidIndex(4)
        for pid, row in enumerate(_matrix(rng, 200, 4)):
            index.add(pid, row)
        peak = index.active_rows
        assert peak >= 200
        # Remove the top 150 postings: the scan window must collapse with
        # them instead of scanning dead rows forever.
        for pid in range(50, 200):
            index.remove(pid)
        assert len(index) == 50
        assert index.active_rows == 50
        # Sustained add/remove churn stays bounded by the live count, not
        # by the historical peak.
        for round_ in range(20):
            for pid in range(1000 + round_ * 10, 1010 + round_ * 10):
                index.add(pid, rng.normal(size=4).astype(np.float32))
            for pid in range(1000 + round_ * 10, 1010 + round_ * 10):
                index.remove(pid)
        assert index.active_rows <= peak
        assert index.active_rows < 200

    def test_interior_hole_then_top_removal_shrinks_past_holes(self):
        rng = np.random.default_rng(1)
        index = BruteForceCentroidIndex(3)
        for pid in range(10):
            index.add(pid, rng.normal(size=3).astype(np.float32))
        for pid in (7, 8):  # interior holes just below the top row
            index.remove(pid)
        index.remove(9)  # top row frees: window must skip the holes too
        assert index.active_rows == 7


class TestDedupMaxDupEquivalence:
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=120),
        st.integers(1, 15),
        st.integers(1, 10),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefilter_is_exact(self, id_list, k, max_dup, seed):
        rng = np.random.default_rng(seed)
        ids = np.array(id_list, dtype=np.int64)
        # Duplicated ids share one distance value, mirroring identical
        # replica vectors — the precondition the prefilter bound uses.
        value_of = {i: np.float32(v) for i, v in
                    zip(set(id_list), rng.random(len(set(id_list))))}
        dists = np.array([value_of[i] for i in id_list], dtype=np.float32)
        # Enforce the multiplicity bound by trimming surplus occurrences.
        keep, counts = [], {}
        for j, i in enumerate(id_list):
            counts[i] = counts.get(i, 0) + 1
            if counts[i] <= max_dup:
                keep.append(j)
        ids, dists = ids[keep], dists[keep]
        plain = dedup_top_k(ids, dists, k)
        fast = dedup_top_k(ids, dists, k, max_dup=max_dup)
        np.testing.assert_array_equal(plain[0], fast[0])
        np.testing.assert_array_equal(plain[1], fast[1])


class TestCodecAdversarialShapes:
    def _codec(self, dim=5, block_size=128):
        return PostingCodec(dim=dim, block_size=block_size)

    def _posting(self, rng, codec, n):
        return PostingData.from_rows(
            ids=rng.integers(0, 1 << 40, size=n),
            versions=rng.integers(0, 127, size=n),
            vectors=_matrix(rng, n, codec.dim),
        )

    def _device_pad(self, codec, payloads):
        """Payloads as the device returns them: padded to full blocks."""
        return [p + b"\x00" * (codec.block_size - len(p)) for p in payloads]

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_entry(self, n):
        rng = np.random.default_rng(n)
        codec = self._codec()
        data = self._posting(rng, codec, n)
        out = codec.decode(self._device_pad(codec, codec.encode(data)), n)
        np.testing.assert_array_equal(out.ids, data.ids)
        np.testing.assert_array_equal(out.versions, data.versions)
        np.testing.assert_array_equal(out.vectors, data.vectors)

    def test_exact_block_and_partial_tail(self):
        rng = np.random.default_rng(2)
        codec = self._codec()
        epb = codec.sections[0][0]
        for n in (epb, epb + 1, 2 * epb, 2 * epb - 1, 3 * epb + epb // 2):
            data = self._posting(rng, codec, n)
            out = codec.decode(self._device_pad(codec, codec.encode(data)), n)
            np.testing.assert_array_equal(out.ids, data.ids)
            np.testing.assert_array_equal(out.versions, data.versions)
            np.testing.assert_array_equal(out.vectors, data.vectors)
            assert out.vectors.flags["C_CONTIGUOUS"]

    def _any_codec(self, kind, dim, block_size):
        if kind == "exact":
            return PostingCodec(dim=dim, block_size=block_size)
        quantizer = ScalarQuantizer(dim).fit(_matrix(np.random.default_rng(0), 32, dim))
        return PostingCodec(dim, block_size, quantizer)

    def _assert_arena_matches(self, codec, postings, sizes, padded):
        """Arena decode == per-posting decode == what was encoded, for whole
        postings and (quantized codec) for the code sections alone."""
        pad = (lambda blocks: self._device_pad(codec, blocks)) if padded else list
        per_posting = [pad(codec.encode(data)) for data in postings]
        pids = [100 + i for i in range(len(sizes))]
        arena = codec.decode_batch(sum(per_posting, []), sizes, pids)
        assert list(arena) == pids and arena.bounds.tolist() == [0, *np.cumsum(sizes)]
        assert len(arena.ids) == len(arena.versions) == len(arena.rows) == sum(sizes)
        for pid, data, blocks, n in zip(pids, postings, per_posting, sizes):
            for got in (arena[pid], codec.decode(blocks, n)):
                assert len(got) == n
                np.testing.assert_array_equal(got.ids, data.ids)
                np.testing.assert_array_equal(got.versions, data.versions)
                np.testing.assert_array_equal(got.vectors, data.vectors)
                assert got.vectors.shape == (n, codec.dim)
                if got.codes is not None:
                    np.testing.assert_array_equal(got.codes, codec.codes_for(data))
        if codec.quantizer is None:
            assert arena.rows is arena.vectors
            return
        sections = [blocks[: codec.blocks_needed(n, 1)]
                    for blocks, n in zip(per_posting, sizes)]
        codes = codec.decode_batch(sum(sections, []), sizes, sections=1)  # default ids 0..n-1
        assert codes.vectors is None and codes.rows is codes.codes
        for slot, (data, blocks, n) in enumerate(zip(postings, sections, sizes)):
            for got in (codes[slot], codec.decode_batch(blocks, [n], sections=1)[0]):
                np.testing.assert_array_equal(got.ids, data.ids)
                np.testing.assert_array_equal(got.versions, data.versions)
                np.testing.assert_array_equal(got.codes, codec.codes_for(data))

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=12),
           st.integers(0, 2**31 - 1), st.sampled_from(["exact", "sq8"]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_decode_batch_matches_per_posting_decode(self, sizes, seed, kind, padded):
        """One decode path: device blocks (padded) and raw ``encode()``
        output (tail payloads cut short) give the same arena."""
        rng = np.random.default_rng(seed)
        codec = self._any_codec(kind, dim=3, block_size=64)
        postings = [self._posting(rng, codec, n) for n in sizes]
        self._assert_arena_matches(codec, postings, sizes, padded)

    @pytest.mark.parametrize("kind", ["exact", "sq8"])
    @pytest.mark.parametrize("padded", [True, False])
    def test_decode_batch_empty_and_block_multiples(self, kind, padded):
        rng = np.random.default_rng(9)
        codec = self._any_codec(kind, dim=4, block_size=96)
        per_block = codec.sections[0][0]
        for sizes in (
            [0],
            [0, 0],
            [per_block],
            [0, per_block, 0, 2 * per_block, 1, 0],
            [3 * per_block, per_block - 1, per_block + 1],
        ):
            postings = [self._posting(rng, codec, n) for n in sizes]
            self._assert_arena_matches(codec, postings, sizes, padded)
        empty = codec.decode_batch([], [])
        assert len(empty) == 0 and len(empty.ids) == 0 and 7 not in empty
        assert empty.rows.shape == (0, codec.dim)

    def test_decode_batch_rejects_entries_without_blocks(self):
        """Too few blocks and short payloads raise StorageError, both codecs."""
        from repro.util.errors import StorageError

        rng = np.random.default_rng(3)
        exact = self._any_codec("exact", dim=5, block_size=128)
        sq8 = self._any_codec("sq8", dim=5, block_size=128)
        cases = []  # (decode, blocks of one two-block run, its entry count)
        for codec, sections in ((exact, None), (sq8, 1), (sq8, None)):
            data = self._posting(rng, codec, codec.sections[0][0] + 2)
            blocks = self._device_pad(codec, codec.encode(data))
            blocks = blocks[: codec.blocks_needed(len(data), sections)]
            cases.append((partial(codec.decode_batch, sections=sections), blocks, len(data)))
        for decode, blocks, n in cases:
            decode(blocks, [n])  # the intact input decodes
            with pytest.raises(StorageError):
                decode([], [4])
            with pytest.raises(StorageError):  # too few blocks for the entries
                decode(blocks[:1], [n])
            with pytest.raises(StorageError):  # a second posting, no blocks left
                decode(blocks, [n, 1])
            with pytest.raises(StorageError):  # short payload: full block cut
                decode([blocks[0][:-90]] + blocks[1:], [n])
            with pytest.raises(StorageError):  # short payload: tail block cut
                decode([blocks[0], blocks[1][:5]] + blocks[2:], [n])

    # -- APPEND continues the record stream without decoding it: the blocks
    # on the device must be, byte for byte, what ``encode`` of everything
    # appended so far produces.
    def _controller(self, kind):
        codec = self._any_codec(kind, dim=3, block_size=64)
        ssd = SimulatedSSD(num_blocks=512, profile=SSDProfile(block_size=64))
        return BlockController(ssd, codec), codec

    def _assert_device_matches(self, controller, codec, pid, everything):
        length, blocks = controller.state_dict()["mapping"][pid]
        assert length == len(everything)
        on_device = [controller.ssd.peek_block(b) for b in blocks]
        assert on_device == self._device_pad(codec, codec.encode(everything))
        got, _ = controller.get(pid)
        np.testing.assert_array_equal(got.ids, everything.ids)
        np.testing.assert_array_equal(got.versions, everything.versions)
        np.testing.assert_array_equal(got.vectors, everything.vectors)
        if got.codes is not None:
            np.testing.assert_array_equal(got.codes, codec.codes_for(everything))

    @given(st.integers(0, 20), st.lists(st.integers(0, 20), min_size=1, max_size=8),
           st.integers(0, 2**31 - 1), st.sampled_from(["exact", "sq8"]))
    @settings(max_examples=80, deadline=None)
    def test_appends_equal_encode_of_concatenation(self, first, sizes, seed, kind):
        rng = np.random.default_rng(seed)
        controller, codec = self._controller(kind)
        everything = self._posting(rng, codec, first)  # 0 = an empty posting
        controller.create(7, everything)
        free = controller.free_block_count
        for n in sizes:
            chunk = self._posting(rng, codec, n)
            controller.append(7, chunk)
            everything = everything.concat(chunk)
            self._assert_device_matches(controller, codec, 7, everything)
        # Every replaced tail went back to the pool.
        assert free - controller.free_block_count == (
            codec.blocks_needed(len(everything)) - codec.blocks_needed(first)
        )

    @pytest.mark.parametrize("kind", ["exact", "sq8"])
    def test_append_block_boundaries_and_single_rows(self, kind):
        """A tail that is exactly full is not read; one row at a time
        walks across a block boundary in every section."""
        rng = np.random.default_rng(5)
        controller, codec = self._controller(kind)
        per_block = max(per for per, _ in codec.sections)
        everything = self._posting(rng, codec, per_block)
        controller.create(7, everything)
        for n in (per_block, 1, 1, 2 * per_block + 1, per_block - 2, 1, 1, 1):
            full_tails = all(len(everything) % per == 0 for per, _ in codec.sections)
            reads = controller.ssd.stats.read_ops
            chunk = self._posting(rng, codec, n)
            controller.append(7, chunk)
            assert controller.ssd.stats.read_ops - reads == (0 if full_tails else 1)
            everything = everything.concat(chunk)
            self._assert_device_matches(controller, codec, 7, everything)

    @pytest.mark.parametrize("kind", ["exact", "sq8"])
    def test_append_rejects_short_tail_payload(self, kind, monkeypatch):
        """A tail block shorter than its valid prefix is corruption, not
        something to append after (the decode it replaces raised too)."""
        from repro.util.errors import StorageError

        rng = np.random.default_rng(6)
        controller, codec = self._controller(kind)
        controller.create(7, self._posting(rng, codec, 2))  # partial tails
        before = controller.state_dict()
        read_blocks = controller.ssd.read_blocks

        def torn(block_ids):
            payloads, latency = read_blocks(block_ids)
            return [payload[:5] for payload in payloads], latency

        monkeypatch.setattr(controller.ssd, "read_blocks", torn)
        with pytest.raises(StorageError):
            controller.append(7, self._posting(rng, codec, 1))
        assert controller.state_dict() == before  # nothing allocated or mapped
