"""Vearch-style in-memory cluster index (paper §2.3's early in-place system).

Vearch keeps cluster-based postings *in memory*, inserts new vectors into
their nearest partition, filters deleted rows out of results — and still
needs **weekly global rebuilds** because fixed centroids cannot
track distribution shift. This implementation exists to reproduce that
§2.3 argument: in-place updates without rebalancing work until the data
moves, and then only a full recluster (`rebuild()`) restores quality.

Being in-memory, its search latency model is pure CPU (per-entry scan
cost); there is no device. Its DRAM footprint is the entire raw vector
set — the cost profile the paper contrasts against disk-based indexes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import QueryRequest, SearchResponse, respond
from repro.clustering.lloyd import kmeans
from repro.spann.searcher import SearchResult
from repro.util.distance import as_matrix, as_vector, sq_l2_batch, top_k_smallest
from repro.util.errors import IndexError_


class _Partition:
    """One in-memory posting: grow-only arrays of ids and vectors."""

    def __init__(self, dim: int) -> None:
        self.ids: list[int] = []
        self.vectors: list[np.ndarray] = []
        self.dim = dim

    def append(self, vector_id: int, vector: np.ndarray) -> None:
        self.ids.append(vector_id)
        self.vectors.append(vector)

    def matrix(self) -> np.ndarray:
        if not self.vectors:
            return np.empty((0, self.dim), dtype=np.float32)
        return np.vstack(self.vectors)

    def __len__(self) -> int:
        return len(self.ids)


class VearchLikeIndex:
    """In-memory cluster index: naive in-place updates + global rebuild."""

    def __init__(
        self,
        dim: int,
        num_partitions: int = 64,
        cpu_cost_per_entry_us: float = 0.02,
        cpu_cost_per_query_us: float = 20.0,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.num_partitions = num_partitions
        self.cpu_cost_per_entry_us = cpu_cost_per_entry_us
        self.cpu_cost_per_query_us = cpu_cost_per_query_us
        self._rng = np.random.default_rng(seed)
        self._centroids = np.empty((0, dim), dtype=np.float32)
        self._partitions: list[_Partition] = []
        # id -> its one live row. A partition row is live iff it *is* its
        # id's entry here, so a deleted row stays hidden after its id is
        # inserted again (the storage is reclaimed by rebuild()).
        self._live: dict[int, np.ndarray] = {}
        self.rebuilds_completed = 0

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
        num_partitions: int = 64,
        seed: int = 0,
    ) -> "VearchLikeIndex":
        vectors = as_matrix(vectors)
        if ids is None:
            ids = np.arange(len(vectors), dtype=np.int64)
        index = cls(vectors.shape[1], num_partitions=num_partitions, seed=seed)
        index._recluster(np.asarray(ids, dtype=np.int64), vectors)
        return index

    def _recluster(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        k = min(self.num_partitions, max(len(vectors), 1))
        centroids, assignments = kmeans(vectors, k, self._rng)
        self._centroids = centroids
        self._partitions = [_Partition(self.dim) for _ in range(len(centroids))]
        self._live = {}
        for vector, vid, part in zip(vectors, ids, assignments):
            self._partitions[int(part)].append(int(vid), vector)
            self._live[int(vid)] = vector

    # ------------------------------------------------------------------
    def insert(self, vector_id: int, vector: np.ndarray) -> float:
        """Append to the nearest partition; centroids stay frozen."""
        vector = as_vector(vector, self.dim).copy()
        if vector_id in self._live:
            raise IndexError_(f"vector {vector_id} already present")
        dists = sq_l2_batch(vector, self._centroids)
        self._partitions[int(dists.argmin())].append(vector_id, vector)
        self._live[vector_id] = vector
        return self.cpu_cost_per_query_us

    def delete(self, vector_id: int) -> float:
        """Deletion by result filtering only: the row stays stored."""
        self._live.pop(vector_id, None)
        return 1.0

    def query(self, request: QueryRequest) -> SearchResponse:
        """Scan the nearest ``nprobe`` partitions (default 8) per query
        row; pure-CPU latency model."""
        return respond(
            request,
            lambda r: [self._search(q, r.k, r.nprobe or 8) for q in r.vectors],
        )

    def _search(self, query: np.ndarray, k: int, nprobe: int) -> SearchResult:
        query = as_vector(query, self.dim)
        if len(self._centroids) == 0:
            return SearchResult(
                ids=np.empty(0, dtype=np.int64),
                distances=np.empty(0, dtype=np.float32),
                latency_us=self.cpu_cost_per_query_us,
            )
        centroid_dists = sq_l2_batch(query, self._centroids)
        order = top_k_smallest(centroid_dists, min(nprobe, len(self._centroids)))
        all_ids: list[int] = []
        all_dists: list[float] = []
        scanned = 0
        for part_idx in order:
            partition = self._partitions[int(part_idx)]
            scanned += len(partition)
            if not len(partition):
                continue
            dists = sq_l2_batch(query, partition.matrix())
            for vid, vector, dist in zip(partition.ids, partition.vectors, dists):
                if self._live.get(vid) is not vector:
                    continue
                all_ids.append(vid)
                all_dists.append(float(dist))
        dist_arr = np.array(all_dists, dtype=np.float32)
        top = top_k_smallest(dist_arr, k)
        latency = (
            self.cpu_cost_per_query_us + self.cpu_cost_per_entry_us * scanned
        )
        return SearchResult(
            ids=np.array(all_ids, dtype=np.int64)[top],
            distances=dist_arr[top],
            latency_us=latency,
            postings_probed=len(order),
            entries_scanned=scanned,
        )

    # ------------------------------------------------------------------
    def rebuild(self) -> float:
        """The weekly global rebuild: full recluster of the live set.

        Returns wall-clock seconds spent — the cost SPFresh exists to
        avoid.
        """
        start = time.perf_counter()
        ids = np.fromiter(self._live.keys(), dtype=np.int64, count=len(self._live))
        if len(ids) == 0:
            return 0.0
        vectors = np.vstack([self._live[int(v)] for v in ids])
        self._recluster(ids, vectors)
        self.rebuilds_completed += 1
        return time.perf_counter() - start

    # ------------------------------------------------------------------
    @property
    def live_vector_count(self) -> int:
        return len(self._live)

    def partition_sizes(self) -> np.ndarray:
        return np.array([len(p) for p in self._partitions], dtype=np.int64)

    def memory_bytes(self) -> int:
        """In-memory index: every raw vector resides in DRAM."""
        stored = sum(len(p) for p in self._partitions)
        return stored * (self.dim * 4 + 8) + len(self._centroids) * self.dim * 4
