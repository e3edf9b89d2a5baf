"""Tests for closure assignment and replica selection (SPANN boundary rule)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spann.closure import closure_assign, select_replicas


class TestSelectReplicas:
    def test_always_includes_nearest(self):
        ids = np.array([5, 6, 7])
        dists = np.array([1.0, 1.1, 50.0], dtype=np.float32)
        chosen = select_replicas(ids, dists, replica_count=3, epsilon=0.0)
        assert chosen[0] == 5

    def test_epsilon_zero_allows_exact_ties_only(self):
        ids = np.array([1, 2, 3])
        dists = np.array([4.0, 4.0, 4.01], dtype=np.float32)
        chosen = select_replicas(ids, dists, replica_count=3, epsilon=0.0)
        assert chosen == [1, 2]

    def test_epsilon_widens_selection(self):
        ids = np.array([1, 2, 3])
        # squared distances: true distances 2, 2.2, 5
        dists = np.array([4.0, 4.84, 25.0], dtype=np.float32)
        assert select_replicas(ids, dists, 3, epsilon=0.15) == [1, 2]
        assert select_replicas(ids, dists, 3, epsilon=2.0) == [1, 2, 3]

    def test_replica_count_cap(self):
        ids = np.arange(10)
        dists = np.full(10, 1.0, dtype=np.float32)
        assert len(select_replicas(ids, dists, 4, epsilon=1.0)) == 4

    def test_empty_candidates(self):
        assert select_replicas(np.empty(0), np.empty(0), 3, 0.1) == []


class TestClosureAssign:
    def make(self, rng, n=200, m=8, dim=6):
        centroids = rng.normal(scale=8.0, size=(m, dim)).astype(np.float32)
        assign = rng.integers(0, m, size=n)
        vectors = (centroids[assign] + rng.normal(scale=0.8, size=(n, dim))).astype(
            np.float32
        )
        return vectors, centroids

    def test_primary_is_nearest(self, rng):
        vectors, centroids = self.make(rng)
        _, primary = closure_assign(vectors, centroids, 4, 0.15)
        from repro.util.distance import pairwise_sq_l2

        expected = pairwise_sq_l2(vectors, centroids).argmin(axis=1)
        np.testing.assert_array_equal(primary, expected)

    def test_every_vector_in_primary_posting(self, rng):
        vectors, centroids = self.make(rng)
        members, primary = closure_assign(vectors, centroids, 4, 0.15)
        for row, p in enumerate(primary):
            assert row in members[p]

    def test_replica_bound(self, rng):
        vectors, centroids = self.make(rng)
        members, _ = closure_assign(vectors, centroids, 3, 1.0)
        counts = np.zeros(len(vectors), dtype=int)
        for rows in members:
            counts[rows] += 1
        assert counts.max() <= 3
        assert counts.min() >= 1

    def test_epsilon_zero_single_copy_mostly(self, rng):
        vectors, centroids = self.make(rng)
        members, _ = closure_assign(vectors, centroids, 4, 0.0)
        counts = np.zeros(len(vectors), dtype=int)
        for rows in members:
            counts[rows] += 1
        # With eps=0 only exact distance ties replicate; Gaussian data has
        # essentially none.
        assert counts.mean() < 1.05

    def test_chunking_invariance(self, rng):
        vectors, centroids = self.make(rng, n=100)
        a, pa = closure_assign(vectors, centroids, 4, 0.2, chunk_size=7)
        b, pb = closure_assign(vectors, centroids, 4, 0.2, chunk_size=1000)
        np.testing.assert_array_equal(pa, pb)
        for x, y in zip(a, b):
            assert x == y

    def test_single_centroid(self, rng):
        vectors, _ = self.make(rng, n=20)
        members, primary = closure_assign(
            vectors, vectors[:1].copy(), 4, 0.15
        )
        assert len(members[0]) == 20
        assert (primary == 0).all()

    def test_no_centroids_raises(self, rng):
        with pytest.raises(ValueError):
            closure_assign(
                rng.normal(size=(5, 4)).astype(np.float32),
                np.empty((0, 4), dtype=np.float32),
                4,
                0.15,
            )

    @given(st.integers(1, 6), st.floats(0.0, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_property_bounds(self, replica_count, epsilon):
        rng = np.random.default_rng(replica_count)
        vectors, centroids = self.make(rng, n=60, m=5)
        members, primary = closure_assign(vectors, centroids, replica_count, epsilon)
        counts = np.zeros(len(vectors), dtype=int)
        for rows in members:
            counts[rows] += 1
        assert counts.min() >= 1
        assert counts.max() <= replica_count
        assert len(primary) == len(vectors)
