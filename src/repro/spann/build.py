"""Static SPANN index build: hierarchical balanced clustering + closure.

The build produces a :class:`BuildPlan` — pure data, no storage side
effects — which the core index (or a baseline) materializes into postings
on its own Block Controller. Keeping the plan separate lets SPFresh,
SPANN+, and the rebuild cost model share one build path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.hierarchical import hierarchical_balanced_clustering
from repro.core.config import SPFreshConfig
from repro.spann.closure import closure_assign


@dataclass
class BuildPlan:
    """Result of the static clustering phase.

    ``centroids[j]`` is posting ``j``'s centroid; ``members[j]`` the vector
    row indices stored in posting ``j`` (primary + replicas); ``primary[i]``
    the posting holding row ``i``'s primary copy.
    """

    centroids: np.ndarray
    members: list[np.ndarray]
    primary: np.ndarray

    @property
    def num_postings(self) -> int:
        return len(self.centroids)

    def posting_sizes(self) -> np.ndarray:
        return np.array([len(m) for m in self.members], dtype=np.int64)

    def replica_counts(self) -> np.ndarray:
        """Replicas per vector (>=1)."""
        counts = np.zeros(len(self.primary), dtype=np.int64)
        for rows in self.members:
            counts[rows] += 1
        return counts


def build_plan(
    vectors: np.ndarray,
    config: SPFreshConfig,
    rng: np.random.Generator,
) -> BuildPlan:
    """Cluster ``vectors`` into balanced postings with boundary replication."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    if len(vectors) == 0:
        raise ValueError("cannot build an index over zero vectors")
    leaves = hierarchical_balanced_clustering(
        vectors,
        target_leaf_size=config.build_target_posting_size,
        rng=rng,
        balance_weight=config.balance_weight,
    )
    centroids = np.vstack([leaf.centroid for leaf in leaves]).astype(np.float32)
    members_lists, primary = closure_assign(
        vectors,
        centroids,
        replica_count=config.replica_count,
        epsilon=config.closure_epsilon,
    )
    members = [np.asarray(rows, dtype=np.int64) for rows in members_lists]
    return BuildPlan(centroids=centroids, members=members, primary=primary)
