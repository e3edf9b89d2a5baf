"""Distributed SPFresh (the paper's stated future work).

The paper closes with "SPFresh's solid single-node performance builds a
strong foundation for the future distributed version." This package
provides that version at reproduction scale: one facade,
:class:`ClusterSPFresh`, whose one pluggable decision is where a row
lives —

* :class:`CentroidPlacement` (default) — accuracy-preserving
  centroid-aware placement, so queries probe only the shards that can
  contribute, with shard splits and posting migration (LIRE at cluster
  granularity);
* :class:`HashPlacement` — the baseline design of production vector
  databases: rows homed by id hash, every query scatter-gathered over
  every shard.

Directory, replica groups with deterministic fan-out and
failure/recovery, typed errors and the result merge are the facade's and
come with either placement; ``query(..., pool=cluster.worker_pool(
fork=True))`` runs the per-shard calls on forked workers so wall-clock
shard parallelism escapes the GIL. See docs/distributed.md.

Each shard is exactly the single-node system, unchanged.
"""

from repro.distributed.cluster import (
    ClusterSPFresh,
    ClusterStats,
    ClusterUnavailableError,
    ShardGroup,
)
from repro.distributed.placement import CentroidPlacement, HashPlacement

__all__ = [
    "CentroidPlacement",
    "ClusterSPFresh",
    "ClusterStats",
    "ClusterUnavailableError",
    "HashPlacement",
    "ShardGroup",
]
