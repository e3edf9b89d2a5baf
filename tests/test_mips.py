"""Tests for the MIPS→L2 reduction and the inner-product index facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.api import QueryRequest
from repro.core.config import SPFreshConfig
from repro.util.mips import MipsSPFreshIndex, MipsTransform

DIM = 12
coords = st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=32)


class TestTransform:
    def test_fit_bounds_all_norms(self, rng):
        vectors = rng.normal(size=(100, DIM)).astype(np.float32)
        transform = MipsTransform.fit(vectors)
        augmented = transform.transform_data(vectors)
        norms = np.linalg.norm(augmented, axis=1)
        np.testing.assert_allclose(norms, transform.norm_bound, rtol=1e-4)

    def test_augmented_dim(self, rng):
        transform = MipsTransform(DIM, 10.0)
        assert transform.augmented_dim == DIM + 1
        q = transform.transform_query(np.ones(DIM, dtype=np.float32))
        assert q.shape == (DIM + 1,)
        assert q[-1] == 0.0

    def test_over_norm_rejected(self):
        transform = MipsTransform(DIM, 1.0)
        with pytest.raises(ValueError):
            transform.transform_data(np.full((1, DIM), 10.0, dtype=np.float32))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MipsTransform(0, 1.0)
        with pytest.raises(ValueError):
            MipsTransform(DIM, 0.0)

    @given(
        hnp.arrays(np.float32, (8, DIM), elements=coords),
        hnp.arrays(np.float32, (DIM,), elements=coords),
    )
    @settings(max_examples=30)
    def test_order_preservation(self, vectors, query):
        """L2 order in the augmented space == inner-product order."""
        transform = MipsTransform.fit(vectors, headroom=1.5)
        augmented = transform.transform_data(vectors)
        aug_query = transform.transform_query(query)
        l2 = ((augmented - aug_query) ** 2).sum(axis=1)
        ip = vectors @ query
        # Walking vectors in ascending-L2 order, inner products must be
        # non-increasing (up to float32 rounding on near-ties).
        ordered_ip = ip[np.argsort(l2, kind="stable")]
        tolerance = 1e-3 * (1.0 + np.abs(ip).max())
        assert (np.diff(ordered_ip) <= tolerance).all()

    def test_inner_product_recovery(self, rng):
        vectors = rng.normal(size=(20, DIM)).astype(np.float32)
        query = rng.normal(size=DIM).astype(np.float32)
        transform = MipsTransform.fit(vectors)
        augmented = transform.transform_data(vectors)
        aug_query = transform.transform_query(query)
        l2 = ((augmented - aug_query) ** 2).sum(axis=1)
        recovered = transform.inner_products_from_sq_l2(query, l2)
        np.testing.assert_allclose(recovered, vectors @ query, rtol=1e-3, atol=1e-2)


class TestMipsIndex:
    @pytest.fixture
    def corpus(self, rng):
        return rng.normal(size=(600, DIM)).astype(np.float32)

    @pytest.fixture
    def index(self, corpus):
        config = SPFreshConfig(
            dim=DIM + 1, ssd_blocks=1 << 13, max_posting_size=48,
            build_target_posting_size=8,
        )
        return MipsSPFreshIndex.build(corpus, config=config)

    def test_top1_matches_exact_mips(self, index, corpus, rng):
        for _ in range(10):
            query = rng.normal(size=DIM).astype(np.float32)
            result = index.query(QueryRequest.single(query, k=1, nprobe=index.num_postings)).result
            exact = int((corpus @ query).argmax())
            assert int(result.ids[0]) == exact

    def test_scores_are_inner_products(self, index, corpus, rng):
        query = rng.normal(size=DIM).astype(np.float32)
        result = index.query(QueryRequest.single(query, k=5, nprobe=index.num_postings)).result
        for vid, score in zip(result.ids, result.distances):
            assert score == pytest.approx(
                float(corpus[int(vid)] @ query), rel=1e-3, abs=1e-2
            )

    def test_scores_descending(self, index, rng):
        query = rng.normal(size=DIM).astype(np.float32)
        result = index.query(QueryRequest.single(query, k=10, nprobe=8)).result
        scores = list(result.distances)
        assert scores == sorted(scores, reverse=True)

    def test_insert_and_delete(self, index, rng):
        strong = rng.normal(size=DIM).astype(np.float32)
        strong /= np.linalg.norm(strong)
        # A vector aligned with the query and within the norm bound wins.
        new_vec = (strong * index.transform.norm_bound * 0.95).astype(np.float32)
        index.insert(50_000, new_vec)
        result = index.query(QueryRequest.single(strong, k=1, nprobe=index.num_postings)).result
        assert int(result.ids[0]) == 50_000
        index.delete(50_000)
        result = index.query(QueryRequest.single(strong, k=5, nprobe=index.num_postings)).result
        assert 50_000 not in set(map(int, result.ids))

    def test_delegates_attributes(self, index):
        assert index.num_postings > 0
        assert index.live_vector_count == 600
