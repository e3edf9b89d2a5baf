"""Lloyd's k-means with k-means++ seeding.

This is the unconstrained baseline clusterer. The index build and posting
splits use the balanced variant (:mod:`repro.clustering.balanced`); plain
k-means exists both as its inner building block and as the ablation
comparator for the "balanced vs plain split" design choice in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from repro.util.distance import pairwise_sq_l2


def kmeans_plus_plus_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = len(points)
    if k <= 0:
        raise ValueError("k must be positive")
    if n == 0:
        raise ValueError("cannot seed centroids from an empty point set")
    k = min(k, n)
    first = int(rng.integers(n))
    centroids = [points[first]]
    closest = pairwise_sq_l2(points, points[first : first + 1]).ravel()
    for _ in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            # All remaining points coincide with a chosen centroid; any
            # unpicked point works — fall back to uniform sampling.
            idx = int(rng.integers(n))
        else:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        centroids.append(points[idx])
        dist_new = pairwise_sq_l2(points, points[idx : idx + 1]).ravel()
        np.minimum(closest, dist_new, out=closest)
    return np.vstack(centroids).astype(np.float32, copy=False)


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 25,
    tol: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster ``points`` into ``k`` groups with Lloyd's algorithm.

    Returns ``(centroids, assignments)`` where ``assignments[i]`` is the
    cluster index of ``points[i]``. Empty clusters are re-seeded from the
    point currently farthest from its centroid, so all ``k`` clusters are
    non-empty when ``len(points) >= k``.
    """
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
        counts = np.bincount(new_assignments, minlength=k)
        if counts.all():
            # Every centroid at once. np.add.at adds each cluster's rows
            # in row order, as the axis-0 sum inside ``mean`` does, and the
            # division rounds the same, so this is bit-identical to the
            # per-centroid loop below.
            sums = np.zeros_like(centroids)
            np.add.at(sums, new_assignments, points)
            np.true_divide(sums, counts[:, None], out=sums, casting="unsafe")
            moved = 0.0
            for step in np.abs(sums - centroids).max(axis=1).tolist():
                moved += step  # not sum(): it compensates since Python 3.12
            centroids = sums
        else:
            # A re-seed moves a point between clusters, which changes the
            # members of later ones: go one centroid at a time.
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
