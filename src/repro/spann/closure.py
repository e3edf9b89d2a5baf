"""Closure (multi-)assignment with boundary replication (SPANN §3.1).

SPANN replicates vectors near partition boundaries into several postings so
that a query probing only a few postings still finds them. A vector joins a
posting when the posting's centroid is within ``(1 + epsilon)`` of its
nearest centroid's distance, capped at ``replica_count`` postings. SPANN
adds an RNG-style diversity rule on top; on dense synthetic centroids it
suppresses nearly all replication, so only the distance-ratio rule is
implemented (see ``SPFreshConfig.closure_epsilon``).
"""

from __future__ import annotations

import numpy as np

from repro.util.distance import pairwise_sq_l2


def select_replicas(
    candidate_ids: np.ndarray,
    candidate_dists: np.ndarray,
    replica_count: int,
    epsilon: float,
) -> list[int]:
    """Pick replica postings for one vector from sorted centroid candidates.

    ``candidate_ids``/``candidate_dists`` come from a centroid-index search,
    ascending by squared distance. Always returns at least the nearest
    candidate.
    """
    if len(candidate_ids) == 0:
        return []
    limit = (1.0 + epsilon) ** 2 * float(candidate_dists[0])
    chosen: list[int] = [int(candidate_ids[0])]
    for pid, dist in zip(candidate_ids[1:], candidate_dists[1:]):
        if len(chosen) >= replica_count:
            break
        if float(dist) > limit:
            break
        chosen.append(int(pid))
    return chosen


def closure_assign(
    vectors: np.ndarray,
    centroids: np.ndarray,
    replica_count: int,
    epsilon: float,
    chunk_size: int = 2048,
) -> tuple[list[list[int]], np.ndarray]:
    """Batch closure assignment for the static build.

    Returns ``(members, primary)`` where ``members[j]`` lists vector row
    indices assigned to posting ``j`` (primary plus replicas) and
    ``primary[i]`` is row ``i``'s nearest posting. Memory is bounded by
    chunking the all-pairs distance computation.
    """
    n = len(vectors)
    m = len(centroids)
    if m == 0:
        raise ValueError("closure_assign needs at least one centroid")
    members: list[list[int]] = [[] for _ in range(m)]
    primary = np.empty(n, dtype=np.int64)
    cap = min(replica_count, m)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        dists = pairwise_sq_l2(vectors[start:stop], centroids)
        # Partial sort: only the nearest `cap` centroids can be replicas.
        nearest = np.argpartition(dists, cap - 1, axis=1)[:, :cap] if cap < m else (
            np.tile(np.arange(m), (stop - start, 1))
        )
        for row in range(stop - start):
            cand = nearest[row]
            order = cand[np.argsort(dists[row, cand], kind="stable")]
            chosen = select_replicas(order, dists[row, order], cap, epsilon)
            primary[start + row] = chosen[0]
            for cid in chosen:
                members[cid].append(start + row)
    return members, primary
