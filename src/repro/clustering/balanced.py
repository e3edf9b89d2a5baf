"""Multi-constraint balanced clustering (SPANN's clusterer, reused by LIRE).

SPANN keeps tail latency bounded by making all postings roughly the same
size. Its balanced k-means augments the assignment step with a size
penalty: a point is assigned to ``argmin_j D(x, c_j) + lambda * count_j``
where ``count_j`` is the running size of cluster ``j`` during the pass.
The penalty couples assignments, so points are processed sequentially in a
shuffled order each round — on Python floats, one generic loop for any
``k``: the arithmetic is the same IEEE doubles a per-point numpy
expression computes, without a numpy dispatch per point.

``split_in_two`` is the specialisation the Local Rebuilder uses to split an
oversized posting into two balanced halves (paper §4.2.1).
"""

from __future__ import annotations

from operator import add

import numpy as np

from repro.clustering.lloyd import kmeans_plus_plus_init
from repro.util.distance import pairwise_sq_l2


def _balance_lambda(points: np.ndarray, balance_weight: float) -> float:
    """Scale the size penalty to the data's distance magnitude.

    The raw penalty competes with squared distances, so it is normalised by
    the mean point norm spread; otherwise one fixed lambda would be either
    inert or dominant depending on vector scale.
    """
    if len(points) < 2:
        return 0.0
    spread = float(points.var(axis=0).sum())
    if spread <= 0.0:
        spread = 1.0
    return balance_weight * spread / max(len(points), 1)


def balanced_kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 12,
    balance_weight: float = 4.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster into ``k`` size-balanced groups.

    Returns ``(centroids, assignments)``. With ``balance_weight=0`` this
    degenerates to sequential Lloyd's. Larger weights trade cluster
    compactness for size evenness; the default keeps the max/min cluster
    size ratio low without visibly hurting centroid quality, matching
    SPANN's design goal.
    """
    points = np.ascontiguousarray(points, dtype=np.float32)
    n = len(points)
    k = min(k, n)
    if k == 0:
        return np.empty((0, points.shape[1]), dtype=np.float32), np.empty(
            0, dtype=np.int64
        )
    centroids = kmeans_plus_plus_init(points, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    lam = _balance_lambda(points, balance_weight)
    for _ in range(max_iters):
        order = rng.permutation(n)
        dists = pairwise_sq_l2(points, centroids).astype(np.float64)
        # The pass is sequential by nature, so it runs on Python floats
        # (the same IEEE doubles) instead of one numpy call per point.
        tally = [0.0] * k
        penalty = [lam * t for t in tally]
        chosen = []
        for row in dists[order].tolist():
            costs = list(map(add, row, penalty))
            j = costs.index(min(costs))  # first minimum wins, as argmin
            chosen.append(j)
            tally[j] += 1.0
            penalty[j] = lam * tally[j]
        new_assignments = np.empty(n, dtype=np.int64)
        new_assignments[order] = chosen
        for j in range(k):
            members = points[new_assignments == j]
            if len(members) > 0:
                centroids[j] = members.mean(axis=0)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return centroids.astype(np.float32, copy=False), assignments


def split_in_two(
    points: np.ndarray,
    rng: np.random.Generator,
    max_iters: int = 12,
    balance_weight: float = 4.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a posting's vectors into two balanced clusters.

    Returns ``(centroids, assignments)`` with exactly two non-empty
    clusters. Degenerate inputs (all points identical) are split by even
    halves so the split operation always makes progress — required by the
    convergence argument in paper §3.4 (each split grows |C| by one).
    """
    points = np.ascontiguousarray(points, dtype=np.float32)
    n = len(points)
    if n < 2:
        raise ValueError("cannot split fewer than 2 points")
    centroids, assignments = balanced_kmeans(
        points, 2, rng, max_iters=max_iters, balance_weight=balance_weight
    )
    if len(centroids) < 2 or len(np.unique(assignments)) < 2:
        # All points coincide (or collapsed): force an even split.
        half = n // 2
        assignments = np.zeros(n, dtype=np.int64)
        assignments[half:] = 1
        centroids = np.vstack(
            [points[:half].mean(axis=0), points[half:].mean(axis=0)]
        ).astype(np.float32)
    return centroids, assignments
