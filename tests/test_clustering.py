"""Tests for k-means, balanced clustering, and the hierarchical build."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.balanced import _balance_lambda, balanced_kmeans, split_in_two
from repro.clustering.hierarchical import hierarchical_balanced_clustering
from repro.clustering.lloyd import kmeans, kmeans_plus_plus_init
from repro.util.distance import pairwise_sq_l2


def blobs(rng, n_per=50, k=4, dim=8, spread=10.0):
    centers = rng.normal(scale=spread, size=(k, dim)).astype(np.float32)
    points = np.vstack(
        [c + rng.normal(scale=0.5, size=(n_per, dim)) for c in centers]
    ).astype(np.float32)
    return points, centers


class TestKMeansInit:
    def test_returns_k_rows(self, rng):
        points, _ = blobs(rng)
        init = kmeans_plus_plus_init(points, 4, rng)
        assert init.shape == (4, 8)

    def test_k_capped_at_n(self, rng):
        points = rng.normal(size=(3, 8)).astype(np.float32)
        init = kmeans_plus_plus_init(points, 10, rng)
        assert init.shape == (3, 8)

    def test_duplicate_points_ok(self, rng):
        points = np.ones((10, 4), dtype=np.float32)
        init = kmeans_plus_plus_init(points, 3, rng)
        assert init.shape == (3, 4)

    def test_empty_raises(self, rng):
        with pytest.raises(ValueError):
            kmeans_plus_plus_init(np.empty((0, 4), np.float32), 2, rng)


class TestKMeans:
    def test_recovers_separated_blobs(self, rng):
        points, centers = blobs(rng, spread=20.0)
        fitted, assignments = kmeans(points, 4, rng)
        # Each fitted centroid should be near one true center.
        for c in fitted:
            nearest = np.min(np.linalg.norm(centers - c, axis=1))
            assert nearest < 2.0
        assert len(np.unique(assignments)) == 4

    def test_all_clusters_nonempty(self, rng):
        points, _ = blobs(rng)
        _, assignments = kmeans(points, 7, rng)
        assert len(np.unique(assignments)) == 7

    def test_k_zero(self, rng):
        c, a = kmeans(np.empty((0, 4), np.float32), 3, rng)
        assert len(c) == 0 and len(a) == 0

    def test_assignment_is_nearest_centroid(self, rng):
        points, _ = blobs(rng, spread=15.0)
        centroids, assignments = kmeans(points, 4, rng)
        dists = np.linalg.norm(points[:, None] - centroids[None], axis=2)
        np.testing.assert_array_equal(assignments, dists.argmin(axis=1))


class TestBalancedKMeans:
    def test_balance_beats_plain_on_skewed_data(self, rng):
        # 90% of mass in one blob: plain k-means gives wildly uneven sizes.
        a = rng.normal(size=(450, 8)).astype(np.float32)
        b = rng.normal(loc=20.0, size=(50, 8)).astype(np.float32)
        points = np.vstack([a, b])
        _, balanced = balanced_kmeans(points, 5, rng, balance_weight=8.0)
        counts = np.bincount(balanced, minlength=5)
        assert counts.max() / max(counts.min(), 1) < 4.0

    def test_zero_weight_degenerates_gracefully(self, rng):
        points, _ = blobs(rng)
        centroids, assignments = balanced_kmeans(points, 4, rng, balance_weight=0.0)
        assert centroids.shape == (4, 8)
        assert len(assignments) == len(points)

    def test_deterministic_given_rng_seed(self):
        points, _ = blobs(np.random.default_rng(0))
        c1, a1 = balanced_kmeans(points, 4, np.random.default_rng(5))
        c2, a2 = balanced_kmeans(points, 4, np.random.default_rng(5))
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(c1, c2)


def balanced_kmeans_numpy_loop(points, k, rng, max_iters=12, balance_weight=4.0):
    """The assignment pass as it was written before it moved to Python
    floats: one ``(dists[i] + lam * counts).argmin()`` per point. Kept here
    as the oracle the production loop must match bit for bit."""
    points = np.ascontiguousarray(points, dtype=np.float32)
    n = len(points)
    k = min(k, n)
    centroids = kmeans_plus_plus_init(points, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    lam = _balance_lambda(points, balance_weight)
    for _ in range(max_iters):
        order = rng.permutation(n)
        counts = np.zeros(k, dtype=np.float64)
        new_assignments = np.empty(n, dtype=np.int64)
        dists = pairwise_sq_l2(points, centroids).astype(np.float64)
        for i in order:
            j = int((dists[i] + lam * counts).argmin())
            new_assignments[i] = j
            counts[j] += 1.0
        for j in range(k):
            members = points[new_assignments == j]
            if len(members) > 0:
                centroids[j] = members.mean(axis=0)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return centroids.astype(np.float32, copy=False), assignments


def kmeans_reference_loop(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 25,
    tol: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray]:
    """``kmeans`` as it was written before the centroid update became one
    ``np.add.at`` pass: one ``members.mean(axis=0)`` per centroid. Kept
    here as the oracle the production update must match bit for bit."""
    points = np.ascontiguousarray(points, dtype=np.float32)
    n = len(points)
    k = min(k, n)
    if k == 0:
        return np.empty((0, points.shape[1]), dtype=np.float32), np.empty(
            0, dtype=np.int64
        )
    centroids = kmeans_plus_plus_init(points, k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        dists = pairwise_sq_l2(points, centroids)
        new_assignments = dists.argmin(axis=1)
        moved = 0.0
        for j in range(k):
            members = points[new_assignments == j]
            if len(members) == 0:
                # Re-seed empty cluster at the globally worst-served point.
                worst = int(dists[np.arange(n), new_assignments].argmax())
                new_centroid = points[worst]
                new_assignments[worst] = j
            else:
                new_centroid = members.mean(axis=0)
            moved += float(np.abs(new_centroid - centroids[j]).max())
            centroids[j] = new_centroid
        converged = bool(np.array_equal(new_assignments, assignments)) or moved < tol
        assignments = new_assignments
        if converged:
            break
    return centroids.astype(np.float32, copy=False), assignments


def _repeated_rows():
    """20 points, 5 distinct rows: k-means++ runs out of distinct seeds,
    so two centroids coincide and the first Lloyd step has an empty
    cluster to re-seed."""
    rows = np.random.default_rng(3).normal(size=(5, 6)).astype(np.float32)
    return np.repeat(rows, 4, axis=0)


class TestKMeansLoopParity:
    """The one-pass centroid update is the per-centroid loop, bit for bit."""

    CASES = {
        # (points, k, max_iters); the first is one PQ subspace fit.
        "pq-subspace": (
            lambda: np.random.default_rng(0).normal(size=(3000, 4)), 256, 8
        ),
        "300x32-k16": (lambda: blobs(np.random.default_rng(1), n_per=75, dim=32)[0], 16, 25),
        "k-equals-n": (lambda: np.random.default_rng(2).normal(size=(12, 4)), 12, 25),
        "empty-cluster": (_repeated_rows, 8, 25),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_reference_loop(self, case):
        make, k, max_iters = self.CASES[case]
        points = make().astype(np.float32)
        ours = kmeans(points, k, np.random.default_rng(11), max_iters=max_iters)
        theirs = kmeans_reference_loop(
            points, k, np.random.default_rng(11), max_iters=max_iters
        )
        assert np.array_equal(ours[1], theirs[1])
        assert ours[0].tobytes() == theirs[0].tobytes()  # array_equal, and -0.0 too

    def test_empty_cluster_case_reseeds(self):
        points = _repeated_rows()
        init = kmeans_plus_plus_init(points, 8, np.random.default_rng(11))
        first = pairwise_sq_l2(points, init).argmin(axis=1)
        assert (np.bincount(first, minlength=8) == 0).any()


class TestBalancedLoopParity:
    """The Python-float pass is the numpy pass: same doubles, same ties."""

    def assert_same(self, points, k, seed, balance_weight):
        ours = balanced_kmeans(
            points, k, np.random.default_rng(seed), balance_weight=balance_weight
        )
        theirs = balanced_kmeans_numpy_loop(
            points, k, np.random.default_rng(seed), balance_weight=balance_weight
        )
        assert ours[1].tobytes() == theirs[1].tobytes()
        assert ours[0].tobytes() == theirs[0].tobytes()

    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("balance_weight", [0.0, 4.0, 64.0])
    def test_seeded_blobs(self, k, balance_weight):
        points, _ = blobs(np.random.default_rng(k), n_per=40, k=3)
        self.assert_same(points, k, seed=17, balance_weight=balance_weight)

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_duplicate_points_tie_the_same_way(self, k):
        rng = np.random.default_rng(3)
        distinct = rng.integers(-2, 3, size=(5, 4)).astype(np.float32)
        points = distinct[rng.integers(0, 5, size=60)]
        self.assert_same(points, k, seed=1, balance_weight=4.0)
        self.assert_same(np.ones((12, 4), np.float32), k, seed=1, balance_weight=4.0)

    @given(
        st.integers(1, 48),
        st.sampled_from([2, 3, 8]),
        st.sampled_from([0.0, 0.5, 4.0]),
        st.booleans(),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, n, k, balance_weight, coarse, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(scale=3.0, size=(n, 5))
        if coarse:
            points = points.round()  # many exact duplicates and ties
        self.assert_same(points.astype(np.float32), k, seed, balance_weight)


class TestSplitInTwo:
    def test_two_nonempty_balanced_halves(self, rng):
        points, _ = blobs(rng, n_per=40, k=2, spread=15.0)
        centroids, assignments = split_in_two(points, rng)
        counts = np.bincount(assignments, minlength=2)
        assert counts.min() > 0
        assert centroids.shape == (2, 8)
        # Well-separated blobs should split nearly evenly.
        assert counts.max() / counts.min() < 1.6

    def test_identical_points_force_even_split(self, rng):
        points = np.ones((10, 4), dtype=np.float32)
        centroids, assignments = split_in_two(points, rng)
        counts = np.bincount(assignments, minlength=2)
        assert counts.min() == 5

    def test_too_few_points(self, rng):
        with pytest.raises(ValueError):
            split_in_two(np.ones((1, 4), dtype=np.float32), rng)

    @given(st.integers(2, 60))
    @settings(max_examples=20, deadline=None)
    def test_split_always_makes_progress(self, n):
        """Both halves non-empty for any input: required for LIRE's
        convergence argument (every split grows |C| by one)."""
        rng = np.random.default_rng(n)
        points = rng.normal(size=(n, 4)).astype(np.float32)
        _, assignments = split_in_two(points, rng)
        counts = np.bincount(assignments, minlength=2)
        assert counts.min() >= 1


class TestHierarchical:
    def test_leaf_size_bound(self, rng):
        points, _ = blobs(rng, n_per=100)
        leaves = hierarchical_balanced_clustering(points, 25, rng)
        assert all(len(leaf.member_indices) <= 25 for leaf in leaves)

    def test_partition_exact(self, rng):
        points, _ = blobs(rng, n_per=60)
        leaves = hierarchical_balanced_clustering(points, 30, rng)
        all_members = np.concatenate([leaf.member_indices for leaf in leaves])
        assert sorted(all_members) == list(range(len(points)))

    def test_centroid_is_member_mean(self, rng):
        points, _ = blobs(rng, n_per=30)
        leaves = hierarchical_balanced_clustering(points, 20, rng)
        for leaf in leaves[:5]:
            np.testing.assert_allclose(
                leaf.centroid,
                points[leaf.member_indices].mean(axis=0),
                rtol=1e-4,
                atol=1e-4,
            )

    def test_duplicate_heavy_data_terminates(self, rng):
        points = np.ones((200, 4), dtype=np.float32)
        leaves = hierarchical_balanced_clustering(points, 16, rng)
        assert sum(len(leaf.member_indices) for leaf in leaves) == 200
        assert all(len(leaf.member_indices) <= 16 for leaf in leaves)

    def test_small_input_single_leaf(self, rng):
        points = rng.normal(size=(5, 4)).astype(np.float32)
        leaves = hierarchical_balanced_clustering(points, 16, rng)
        assert len(leaves) == 1

    def test_invalid_params(self, rng):
        points = rng.normal(size=(5, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            hierarchical_balanced_clustering(points, 0, rng)
        with pytest.raises(ValueError):
            hierarchical_balanced_clustering(points, 4, rng, branch_factor=1)
