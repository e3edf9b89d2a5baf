"""Parity suite for the quantized hot path (repro.quantize).

Property-based (hypothesis) checks pin the fused ADC kernel against the
brute-force oracle, bound the encode/decode round-trip error, and assert
the engine-level contracts: rerank-everything is bit-identical to the
exact index, and the LIRE lifecycle keeps the code column coherent with
the vectors it summarizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import QueryRequest
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.core.invariants import check_invariants
from repro.quantize import (
    ProductQuantizer,
    ScalarQuantizer,
    adc_scan,
    adc_scan_brute,
    make_quantizer,
    quantizer_from_state,
)
from repro.storage.layout import PostingCodec, PostingData
from repro.util.distance import pairwise_sq_l2


def _tables_and_codes(draw):
    nq = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    table_size = draw(st.sampled_from([4, 16, 256]))
    n = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    tables = rng.normal(size=(nq, m, table_size)).astype(np.float32)
    codes = rng.integers(0, table_size, size=(n, m)).astype(np.uint8)
    return tables, codes, rng


@st.composite
def adc_cases(draw):
    return _tables_and_codes(draw)


class TestAdcKernel:
    @given(adc_cases())
    @settings(max_examples=80, deadline=None)
    def test_fused_matches_brute(self, case):
        tables, codes, _ = case
        fused = adc_scan(tables, codes)
        brute = adc_scan_brute(tables, codes)
        assert fused.shape == brute.shape == (len(tables), len(codes))
        assert np.array_equal(fused, brute)

    @given(adc_cases())
    @settings(max_examples=80, deadline=None)
    def test_query_rows_matches_dense_slice(self, case):
        # The batched searcher's per-posting subset branch must be
        # bit-identical to slicing the dense result.
        tables, codes, rng = case
        nq = len(tables)
        rows = rng.choice(nq, size=rng.integers(1, nq + 1), replace=False)
        subset = adc_scan(tables, codes, query_rows=rows)
        dense = adc_scan(tables, codes)
        assert np.array_equal(subset, dense[rows])

    def test_subspace_mismatch_raises(self):
        tables = np.zeros((1, 4, 16), dtype=np.float32)
        with pytest.raises(ValueError):
            adc_scan(tables, np.zeros((3, 2), dtype=np.uint8))

    def test_empty_codes(self):
        tables = np.zeros((3, 4, 16), dtype=np.float32)
        out = adc_scan(tables, np.zeros((0, 4), dtype=np.uint8))
        assert out.shape == (3, 0)
        out = adc_scan(tables, np.zeros((0, 4), dtype=np.uint8), query_rows=[1])
        assert out.shape == (1, 0)


@st.composite
def training_sets(draw):
    dim = draw(st.sampled_from([8, 16, 32]))
    n = draw(st.integers(40, 200))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    vectors = rng.normal(scale=draw(st.sampled_from([0.5, 2.0])), size=(n, dim))
    return vectors.astype(np.float32), dim, rng


class TestProductQuantizerProperties:
    @given(training_sets())
    @settings(max_examples=25, deadline=None)
    def test_adc_equals_distance_to_reconstruction(self, case):
        vectors, dim, rng = case
        pq = ProductQuantizer(dim, num_subspaces=4, codebook_size=16)
        pq.fit(vectors, rng)
        codes = pq.encode(vectors[:20])
        decoded = pq.decode(codes)
        queries = vectors[:3]
        adc = adc_scan(pq.distance_tables(queries), codes)
        exact_to_decoded = ((queries[:, None, :] - decoded[None, :, :]) ** 2).sum(
            axis=2
        )
        np.testing.assert_allclose(adc, exact_to_decoded, rtol=1e-4, atol=1e-3)

    @given(training_sets())
    @settings(max_examples=25, deadline=None)
    def test_encode_deterministic(self, case):
        # LIRE rewrite paths (split/merge/flush/GC) recompute codes freely
        # and must land on byte-identical results.
        vectors, dim, rng = case
        pq = ProductQuantizer(dim, num_subspaces=4, codebook_size=16)
        pq.fit(vectors, rng)
        assert np.array_equal(pq.encode(vectors), pq.encode(vectors))
        clone = quantizer_from_state(pq.state_dict())
        assert np.array_equal(pq.encode(vectors), clone.encode(vectors))


    @pytest.mark.parametrize("dim,subspaces,codebook", [(64, 16, 256), (16, 4, 32), (24, 3, 16)])
    def test_distance_tables_bit_identical_to_per_subspace_loop(
        self, dim, subspaces, codebook
    ):
        """The stacked matmul is the per-subspace ``pairwise_sq_l2`` loop,
        term for term: golden search digests depend on every bit."""
        rng = np.random.default_rng(dim)
        base = (rng.normal(size=(1500, dim)) * 3).astype(np.float32)
        pq = ProductQuantizer(dim, subspaces, codebook).fit(base, rng)
        for n in (0, 1, 2, 5, 32, 64):
            queries = (rng.normal(size=(n, dim)) * 3).astype(np.float32)
            looped = np.zeros((n, subspaces, codebook), dtype=np.float32)
            for m in range(subspaces):
                chunk = queries[:, m * pq.sub_dim : (m + 1) * pq.sub_dim]
                looped[:, m, :] = pairwise_sq_l2(chunk, pq.codebooks[m])
            tables = pq.distance_tables(queries)
            assert tables.dtype == np.float32 and tables.flags["C_CONTIGUOUS"]
            assert tables.shape == looped.shape and np.array_equal(tables, looped)
        single = pq.distance_tables(queries[0])  # a bare vector is a batch of one
        assert np.array_equal(single, pq.distance_tables(queries[:1]))


class TestScalarQuantizerProperties:
    @given(training_sets())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_bound(self, case):
        # Per-dimension reconstruction error is bounded by scale/2 for
        # in-range inputs (training points are in range by construction).
        vectors, dim, rng = case
        sq = ScalarQuantizer(dim)
        sq.fit(vectors, rng)
        decoded = sq.decode(sq.encode(vectors))
        bound = sq.scale.astype(np.float64) / 2.0
        err = np.abs(decoded.astype(np.float64) - vectors.astype(np.float64))
        assert np.all(err <= bound + 1e-5)

    @given(training_sets())
    @settings(max_examples=15, deadline=None)
    def test_out_of_range_clamps(self, case):
        vectors, dim, rng = case
        sq = ScalarQuantizer(dim)
        sq.fit(vectors, rng)
        far = vectors[:5] + 100.0
        decoded = sq.decode(sq.encode(far))
        hi = sq.lo + sq.scale * 255
        assert np.all(decoded <= hi + 1e-4)


class TestQuantizedCodecRoundTrip:
    @given(training_sets())
    @settings(max_examples=15, deadline=None)
    def test_sectioned_round_trip(self, case):
        vectors, dim, rng = case
        quantizer = make_quantizer("pq", dim, subspaces=4, codebook_size=16)
        quantizer.fit(vectors, rng)
        codec = PostingCodec(dim, block_size=4096, quantizer=quantizer)
        n = min(len(vectors), 37)
        data = PostingData.from_rows(
            ids=np.arange(n, dtype=np.int64),
            versions=np.ones(n, dtype=np.uint8),
            vectors=vectors[:n],
        )
        payloads = codec.encode(data)
        out = codec.decode(payloads, n)
        assert np.array_equal(out.ids, data.ids)
        assert np.array_equal(out.versions, data.versions)
        assert np.array_equal(out.vectors, data.vectors)
        assert np.array_equal(out.codes, quantizer.encode(data.vectors))


DIM = 16


def _build(vectors, **overrides):
    config = SPFreshConfig(
        dim=DIM,
        max_posting_size=32,
        min_posting_size=3,
        build_target_posting_size=16,
        ssd_blocks=1 << 13,
        reassign_range=8,
        seed=7,
        search_latency_budget_us=None,
        **overrides,
    ).validate()
    return SPFreshIndex.build(vectors, config=config)


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(1234)
    centers = rng.normal(scale=6.0, size=(4, DIM)).astype(np.float32)
    assignment = rng.integers(0, 4, size=400)
    return (
        centers[assignment] + rng.normal(scale=0.5, size=(400, DIM))
    ).astype(np.float32)


@pytest.fixture(scope="module")
def quant_index(blobs):
    return _build(
        blobs,
        quant_enabled=True,
        quant_kind="pq",
        quant_subspaces=4,
        quant_rerank_k=8,
    )


class TestEngineParity:
    def test_rerank_everything_is_exact(self, blobs):
        # With rerank_k covering every scanned candidate, the quantized
        # path degenerates to exact search and must match bit for bit.
        exact = _build(blobs)
        quant = _build(
            blobs,
            quant_enabled=True,
            quant_kind="pq",
            quant_subspaces=4,
            quant_rerank_k=10**6,
        )
        rng = np.random.default_rng(5)
        queries = blobs[rng.integers(0, len(blobs), size=16)]
        for q in queries:
            a = exact.query(QueryRequest.single(q, k=10, nprobe=4)).result
            b = quant.query(QueryRequest.single(q, k=10, nprobe=4)).result
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)

    def test_batched_matches_single(self, blobs, quant_index):
        rng = np.random.default_rng(6)
        queries = blobs[rng.integers(0, len(blobs), size=24)]
        batched = quant_index.query(QueryRequest(vectors=queries, k=5, nprobe=4))
        for q, br in zip(queries, batched.results):
            sr = quant_index.query(QueryRequest.single(q, k=5, nprobe=4)).result
            assert np.array_equal(sr.ids, br.ids)
            assert np.array_equal(sr.distances, br.distances)

    def test_results_deduplicate_closure_replicas(self, blobs, quant_index):
        # Closure assignment replicates boundary vectors into several
        # postings; replicas share one code, so the selection stage must
        # rank only one copy per id and results must never repeat an id.
        rng = np.random.default_rng(8)
        queries = blobs[rng.integers(0, len(blobs), size=16)]
        for q in queries:
            r = quant_index.query(
                QueryRequest.single(q, k=10, nprobe=quant_index.num_postings)
            ).result
            assert len(np.unique(r.ids)) == len(r.ids)
            assert r.reranked_entries > 0

    def test_snapshot_restores_fitted_quantizer(self, quant_index):
        state = quant_index.quantizer.state_dict()
        clone = quantizer_from_state(state)
        probe = np.arange(DIM, dtype=np.float32).reshape(1, -1)
        assert np.array_equal(
            quant_index.quantizer.encode(probe), clone.encode(probe)
        )


class TestLifecycleCoherence:
    def test_churn_keeps_codes_coherent(self, blobs):
        # Inserts, deletes, splits, and the maintenance drain must keep
        # the stored code column byte-identical to re-encoding the
        # stored vectors (LIRE keeps codes fresh).
        index = _build(
            blobs,
            quant_enabled=True,
            quant_kind="pq",
            quant_subspaces=4,
            quant_rerank_k=8,
        )
        rng = np.random.default_rng(11)
        for i in range(120):
            if i % 3 == 2:
                index.delete(int(rng.integers(len(blobs))))
            else:
                pick = int(rng.integers(len(blobs)))
                vec = (blobs[pick] + rng.normal(scale=0.2, size=DIM)).astype(
                    np.float32
                )
                index.insert(10_000 + i, vec)
        index.drain()
        report = check_invariants(index)
        assert report.code_mismatches == []
        assert report.lost_vectors == []
