"""Shard placement: the one pluggable decision of ``ClusterSPFresh``.

A placement says which shard is a row's home (``homes``), which shards a
query must probe (``shards_for_queries``), how many regions each shard
owns (``group_sizes``) and what it costs in memory (``memory_bytes``).
Two are provided.

:class:`HashPlacement` is the baseline: blind hash routing spreads every
region of the vector space over every shard, so a query can only be
answered by broadcasting. "Scalable Distributed Vector Search via
Accuracy Preserving Index Construction" (PAPERS.md) shows the
alternative :class:`CentroidPlacement` implements: partition the space
by *clustered centroid groups* so each shard owns a few compact regions,
keep a shard-level centroid summary on the router, and probe only the
shards whose summaries can contribute to a query.

Concretely, centroid placement is a two-level clustering:

1. ``num_shards * centroids_per_shard`` **fine centroids** are fit over
   the base vectors with balanced k-means (the same clusterer SPANN uses
   for postings, one level up);
2. the fine centroids are themselves grouped into ``num_shards``
   size-balanced **centroid groups** — one group per shard — so nearby
   regions co-locate and every shard owns the same number of regions.

A vector's home shard is the group of its nearest fine centroid. A
query ranks shards by distance to their *nearest* group member and
probes the top ``cluster_nprobe`` — the accuracy-preserving analogue of
SPANN's nprobe, one level up. The summary is tiny (``G x dim`` floats),
so routing costs one small matrix product; the modelled cost rides in
``ClusterSPFresh.ROUTE_COST_US``.

The centroid placement is mutable under growth: :meth:`split_group`
carves one shard's centroid group in two (LIRE's split discipline at
cluster granularity) and :meth:`rows_moved` names the rows the cluster
facade then migrates. A hash has one indivisible region per shard and
cannot be carved.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.balanced import balanced_kmeans
from repro.util.distance import as_matrix, pairwise_sq_l2


class CentroidPlacement:
    """Shard-level centroid summary: fine centroids grouped by shard."""

    def __init__(self, centroids: np.ndarray, shard_of_centroid: np.ndarray) -> None:
        centroids = as_matrix(centroids)
        shard_of_centroid = np.asarray(shard_of_centroid, dtype=np.int64)
        if len(centroids) != len(shard_of_centroid):
            raise ValueError("one shard assignment per fine centroid required")
        if len(centroids) == 0:
            raise ValueError("placement needs at least one fine centroid")
        self.centroids = centroids
        self.shard_of_centroid = shard_of_centroid
        self.num_shards = int(shard_of_centroid.max()) + 1
        missing = set(range(self.num_shards)) - set(
            int(s) for s in np.unique(shard_of_centroid)
        )
        if missing:
            raise ValueError(f"shards without any centroid: {sorted(missing)}")

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        vectors: np.ndarray,
        num_shards: int,
        centroids_per_shard: int = 8,
        seed: int = 0,
        sample_limit: int = 20_000,
    ) -> "CentroidPlacement":
        """Two-level balanced clustering over (a sample of) the base set."""
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        vectors = as_matrix(vectors)
        rng = np.random.default_rng(seed)
        if len(vectors) > sample_limit:
            picks = rng.choice(len(vectors), size=sample_limit, replace=False)
            sample = vectors[np.sort(picks)]
        else:
            sample = vectors
        fine_k = min(num_shards * centroids_per_shard, len(sample))
        if fine_k < num_shards:
            raise ValueError(
                f"{len(sample)} vectors cannot seed {num_shards} shards"
            )
        fine, _ = balanced_kmeans(sample, fine_k, rng)
        if num_shards == 1:
            groups = np.zeros(len(fine), dtype=np.int64)
        else:
            # Group the fine centroids into size-balanced meta-clusters so
            # nearby regions land on the same shard and group sizes stay
            # even (no shard owns the whole hot region, none starves). A
            # high balance weight is correct here: group evenness is the
            # placement's load-balance story.
            _, groups = balanced_kmeans(
                fine, num_shards, rng, balance_weight=64.0
            )
            groups = _compact_groups(groups, num_shards, fine, rng)
        return cls(fine, groups)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def homes(self, ids: np.ndarray | None, vectors: np.ndarray) -> np.ndarray:
        """Home shard per row: the shard owning the nearest fine centroid.

        Placement is by vector; the ids play no part.
        """
        vectors = as_matrix(vectors, self.centroids.shape[1])
        if len(vectors) == 0:
            return np.empty(0, dtype=np.int64)
        nearest = pairwise_sq_l2(vectors, self.centroids).argmin(axis=1)
        return self.shard_of_centroid[nearest]

    def shard_distances(self, queries: np.ndarray) -> np.ndarray:
        """Per-query distance to each shard's nearest group member.

        Returns a ``(Q, num_shards)`` matrix; the routed search probes the
        ``cluster_nprobe`` smallest entries per row.
        """
        queries = as_matrix(queries, self.centroids.shape[1])
        dists = pairwise_sq_l2(queries, self.centroids)
        out = np.full((len(queries), self.num_shards), np.inf, dtype=np.float64)
        for shard in range(self.num_shards):
            members = self.shard_of_centroid == shard
            if members.any():
                out[:, shard] = dists[:, members].min(axis=1)
        return out

    def shards_for_queries(
        self, queries: np.ndarray, nprobe: int | None
    ) -> list[np.ndarray]:
        """Ranked shard ids to probe per query (all shards when ``None``)."""
        queries = as_matrix(queries, self.centroids.shape[1])
        if nprobe is None or nprobe >= self.num_shards:
            return _every_shard(len(queries), self.num_shards)
        dists = self.shard_distances(queries)
        take = max(1, int(nprobe))
        order = np.argsort(dists, axis=1, kind="stable")[:, :take]
        return [row.astype(np.int64) for row in order]

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def split_group(
        self, shard_id: int, new_shard_id: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Split ``shard_id``'s centroid group in two; returns moved rows.

        The group's fine centroids are re-clustered into two balanced
        halves; the half farther from the group mean moves to
        ``new_shard_id``. The caller migrates the vectors whose nearest
        fine centroid moved (cluster-granularity LIRE: split, then
        reassign whatever the new boundary reroutes). Returns the indices
        of the fine centroids now owned by the new shard.
        """
        members = np.nonzero(self.shard_of_centroid == shard_id)[0]
        if len(members) < 2:
            raise ValueError(
                f"shard {shard_id} owns {len(members)} fine centroids; "
                f"need at least 2 to split"
            )
        if new_shard_id != self.num_shards:
            raise ValueError("new shard id must extend the shard range by 1")
        group = self.centroids[members]
        _, halves = balanced_kmeans(group, 2, rng, balance_weight=64.0)
        if halves.max() == 0:  # degenerate: identical centroids
            halves[len(halves) // 2 :] = 1
        # Deterministic orientation: half 1 (the one whose mean is farther
        # from the old group mean) becomes the new shard.
        mean = group.mean(axis=0, keepdims=True)
        d0 = pairwise_sq_l2(group[halves == 0].mean(axis=0)[None], mean).item()
        d1 = pairwise_sq_l2(group[halves == 1].mean(axis=0)[None], mean).item()
        moving_half = 1 if d1 >= d0 else 0
        moved = members[halves == moving_half]
        if len(moved) == len(members):  # never strand the old shard
            moved = moved[:-1]
        self.shard_of_centroid[moved] = new_shard_id
        self.num_shards += 1
        return moved

    def rows_moved(
        self, vectors: np.ndarray, shard_id: int, moved: np.ndarray
    ) -> np.ndarray:
        """Mask of ``shard_id``'s rows that follow ``moved`` after a split.

        A row moves when its nearest centroid *within the old group* is
        one of the moved ones (the cluster-level NPA property).
        """
        members = np.concatenate(
            [moved, np.nonzero(self.shard_of_centroid == shard_id)[0]]
        )
        nearest = members[
            pairwise_sq_l2(vectors, self.centroids[members]).argmin(axis=1)
        ]
        return np.isin(nearest, moved)

    def undo_split(self, shard_id: int, moved: np.ndarray) -> None:
        """Revert a :meth:`split_group` that moved no row (or every row)."""
        self.shard_of_centroid[moved] = shard_id
        self.num_shards -= 1

    def group_sizes(self) -> np.ndarray:
        """Fine centroids owned per shard."""
        return np.bincount(self.shard_of_centroid, minlength=self.num_shards)

    def memory_bytes(self) -> int:
        return self.centroids.nbytes


def _every_shard(num_queries: int, num_shards: int) -> list[np.ndarray]:
    """The broadcast plan: each query probes shards ``0..num_shards-1``."""
    return [np.arange(num_shards, dtype=np.int64) for _ in range(num_queries)]


def _compact_groups(
    groups: np.ndarray,
    num_shards: int,
    fine: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ensure every shard owns >= 1 centroid (re-seed empties greedily)."""
    groups = groups.astype(np.int64, copy=True)
    for shard in range(num_shards):
        if not (groups == shard).any():
            # Donate from the currently largest group: its member farthest
            # from the group mean becomes the empty shard's seed region.
            donor = int(np.bincount(groups, minlength=num_shards).argmax())
            members = np.nonzero(groups == donor)[0]
            center = fine[members].mean(axis=0, keepdims=True)
            far = members[int(pairwise_sq_l2(fine[members], center).argmax())]
            groups[far] = shard
    return groups


class HashPlacement:
    """Id-hash placement: the scatter-gather baseline of vector stores.

    A row's home is a multiplicative hash of its *id*, so every update is
    a single-shard operation and shards stay balanced in expectation
    whatever the data looks like. The price: the hash says nothing about
    the vector, so every query probes every shard.
    """

    _MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = num_shards

    def homes(self, ids: np.ndarray, vectors: np.ndarray | None = None) -> np.ndarray:
        """Home shard per row — by id; the vectors play no part.

        uint64 arithmetic wraps modulo 2**64 exactly like the scalar
        ``((id * _MIX) & (2**64 - 1)) >> 32`` (negative ids reinterpret
        two's-complement, matching Python's masked product), so this is
        bit-identical to it for the full int64 range.
        """
        ids_u = np.ascontiguousarray(ids, dtype=np.int64).view(np.uint64)
        mixed = ids_u * np.uint64(self._MIX)
        return (
            (mixed >> np.uint64(32)) % np.uint64(self.num_shards)
        ).astype(np.int64)

    def shards_for_queries(
        self, queries: np.ndarray, nprobe: int | None = None
    ) -> list[np.ndarray]:
        """Every shard for every query, whatever ``nprobe`` says."""
        return _every_shard(len(queries), self.num_shards)

    def group_sizes(self) -> np.ndarray:
        """One indivisible region per shard."""
        return np.ones(self.num_shards, dtype=np.int64)

    def memory_bytes(self) -> int:
        return 0
