"""Unit + property tests for the distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.distance import (
    PAIR_CHUNK_ELEMS,
    as_matrix,
    as_vector,
    pairwise_sq_l2,
    sq_l2,
    sq_l2_batch,
    top_k_smallest,
)

finite_floats = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False, width=32
)


def vec_strategy(dim=8):
    return hnp.arrays(np.float32, (dim,), elements=finite_floats)


def mat_strategy(max_rows=12, dim=8):
    return hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, max_rows), st.just(dim)),
        elements=finite_floats,
    )


class TestSqL2:
    def test_zero_for_identical(self):
        v = np.ones(4, dtype=np.float32)
        assert sq_l2(v, v) == 0.0

    def test_known_value(self):
        a = np.array([0.0, 0.0], dtype=np.float32)
        b = np.array([3.0, 4.0], dtype=np.float32)
        assert sq_l2(a, b) == pytest.approx(25.0)

    @given(vec_strategy(), vec_strategy())
    def test_symmetry(self, a, b):
        assert sq_l2(a, b) == pytest.approx(sq_l2(b, a), rel=1e-4, abs=1e-4)

    @given(vec_strategy(), vec_strategy())
    def test_non_negative(self, a, b):
        assert sq_l2(a, b) >= 0.0


class TestSqL2Batch:
    def test_matches_scalar(self, rng):
        q = rng.normal(size=8).astype(np.float32)
        pts = rng.normal(size=(20, 8)).astype(np.float32)
        batch = sq_l2_batch(q, pts)
        for i in range(20):
            assert batch[i] == pytest.approx(sq_l2(q, pts[i]), rel=1e-4, abs=1e-4)

    def test_empty_points(self):
        out = sq_l2_batch(np.zeros(4, dtype=np.float32), np.empty((0, 4), np.float32))
        assert out.shape == (0,)


class TestPairwise:
    @given(mat_strategy(), mat_strategy())
    @settings(max_examples=30)
    def test_matches_batch(self, a, b):
        # The expanded-form GEMM cancels: its error scales with the vectors'
        # squared magnitude, not with the distance, so the tolerance does too.
        full = pairwise_sq_l2(a, b)
        assert full.shape == (len(a), len(b))
        a2 = (a.astype(np.float64) ** 2).sum(axis=1)
        b2 = (b.astype(np.float64) ** 2).sum(axis=1)
        for i in range(len(a)):
            row = sq_l2_batch(a[i], b)
            assert (np.abs(full[i] - row) <= 1e-4 * (1.0 + a2[i] + b2)).all()

    @given(mat_strategy())
    @settings(max_examples=30)
    def test_self_diagonal_near_zero(self, a):
        # The expanded |a|^2 - 2ab + |b|^2 form cancels; the self-distance
        # error is bounded relative to the vector magnitude, not absolutely.
        d = pairwise_sq_l2(a, a)
        tolerance = 1e-4 * (1.0 + (a.astype(np.float64) ** 2).sum(axis=1))
        assert (np.diag(d) <= tolerance).all()

    def test_never_negative_under_cancellation(self):
        # Large identical values exercise the clamp against fp cancellation.
        a = np.full((3, 4), 1e4, dtype=np.float32)
        assert (pairwise_sq_l2(a, a) >= 0).all()

    def test_empty_inputs(self):
        a = np.empty((0, 4), dtype=np.float32)
        b = np.ones((2, 4), dtype=np.float32)
        assert pairwise_sq_l2(a, b).shape == (0, 2)
        assert pairwise_sq_l2(b, a).shape == (2, 0)


def pairwise_sq_l2_one_line(a, b):
    """``pairwise_sq_l2`` as one full-size expression, before it ran the
    elementwise passes on row blocks: the oracle the blocks must match."""
    a2 = np.einsum("ij,ij->i", a, a)[:, None]
    b2 = np.einsum("ij,ij->i", b, b)[None, :]
    out = a2 + b2 - 2.0 * (a @ b.T)
    np.maximum(out, 0.0, out=out)
    return out.astype(np.float32, copy=False)


class TestPairwiseBlocks:
    """Row blocks do the one-liner's float operations in its order."""

    # (rows of a, rows of b, dim): one block, a partial last block, and a
    # b wider than one block so every block is a single row.
    SHAPES = [
        (0, 5, 4),
        (1, 5, 4),
        (1, 300, 16),
        (3 * (PAIR_CHUNK_ELEMS // 100) + 7, 100, 4),
        (3, PAIR_CHUNK_ELEMS + 9, 2),
    ]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize(
        "dtypes",
        [
            (np.float32, np.float32),
            (np.float64, np.float64),
            (np.float32, np.float64),
            (np.float64, np.float32),
        ],
        ids=lambda d: "-".join(np.dtype(t).name for t in d),
    )
    def test_bit_identical_to_one_line(self, shape, dtypes):
        rows_a, rows_b, dim = shape
        rng = np.random.default_rng(rows_a * 7 + rows_b)
        a = rng.normal(scale=3.0, size=(rows_a, dim)).astype(dtypes[0])
        b = rng.normal(scale=3.0, size=(rows_b, dim)).astype(dtypes[1])
        ours = pairwise_sq_l2(a, b)
        assert ours.dtype == np.float32 and ours.shape == (rows_a, rows_b)
        assert ours.tobytes() == pairwise_sq_l2_one_line(a, b).tobytes()

    def test_strided_subspace_view(self, rng):
        # ProductQuantizer.encode passes column slices of a wider matrix.
        wide = rng.normal(size=(1500, 64)).astype(np.float32)
        books = rng.normal(size=(256, 4)).astype(np.float32)
        chunk = wide[:, 8:12]
        assert pairwise_sq_l2(chunk, books).tobytes() == (
            pairwise_sq_l2_one_line(chunk, books).tobytes()
        )


class TestTopK:
    def test_sorted_ascending(self, rng):
        values = rng.normal(size=50).astype(np.float32)
        idx = top_k_smallest(values, 10)
        assert list(values[idx]) == sorted(values)[:10]

    def test_k_larger_than_n(self):
        values = np.array([3.0, 1.0, 2.0], dtype=np.float32)
        idx = top_k_smallest(values, 10)
        assert list(idx) == [1, 2, 0]

    def test_k_zero_or_empty(self):
        assert len(top_k_smallest(np.array([1.0]), 0)) == 0
        assert len(top_k_smallest(np.empty(0, np.float32), 5)) == 0

    @given(
        hnp.arrays(np.float32, st.integers(1, 40), elements=finite_floats),
        st.integers(1, 45),
    )
    def test_property_matches_sort(self, values, k):
        idx = top_k_smallest(values, k)
        expected = np.sort(values)[: min(k, len(values))]
        np.testing.assert_array_equal(np.sort(values[idx]), expected)

    def test_deterministic_tie_break(self):
        values = np.zeros(8, dtype=np.float32)
        idx = top_k_smallest(values, 3)
        assert list(idx) == [0, 1, 2]


class TestCasting:
    def test_as_vector_validates_dim(self):
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], dim=3)

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))

    def test_as_matrix_promotes_vector(self):
        m = as_matrix([1.0, 2.0, 3.0])
        assert m.shape == (1, 3)
        assert m.dtype == np.float32

    def test_as_matrix_validates_dim(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 2)), dim=3)
