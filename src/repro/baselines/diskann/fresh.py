"""FreshDiskANN-style streaming index over a simulated disk (paper §5.1).

Faithful to the baseline's architecture:

* the Vamana graph lives on "disk" — one node (vector + adjacency) per
  block of a :class:`SimulatedSSD`; traversal reads node blocks in beam
  batches and pays the device latency for every hop;
* PQ-compressed vectors live in DRAM and steer the traversal; exact
  distances come from the vectors read off the node blocks (rerank);
* inserts greedy-search for a neighborhood, RobustPrune it, then patch
  reverse edges with read-modify-writes;
* deletes are tombstones; accumulated deletes trigger ``streaming_merge``,
  a global consolidation that rewrites the graph — the expensive
  out-of-place step whose latency interference Figure 7 shows.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass

import numpy as np

from repro.api import QueryRequest, SearchResponse, respond
from repro.baselines.diskann.vamana import build_vamana, robust_prune
from repro.quantize.pq import ProductQuantizer
from repro.spann.searcher import SearchResult
from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.util.distance import as_matrix, as_vector
from repro.util.errors import IndexError_, StorageError


@dataclass
class DiskANNConfig:
    """Tunables for the FreshDiskANN baseline (defaults: paper's, scaled)."""

    dim: int = 32
    degree_limit: int = 16  # paper R=64 at billion scale
    degree_slack: int = 8  # prune only past limit+slack (amortized)
    build_list_size: int = 32
    search_list_size: int = 32  # paper L=40
    insert_list_size: int = 48  # paper insert candidate list = 75
    alpha: float = 1.2
    beamwidth: int = 2  # paper default
    pq_subspaces: int = 4

    # streamingMerge policy: consolidate after this many deletes.
    merge_threshold: int = 2000
    # Latency interference: queries overlapping a merge window queue behind
    # its I/O; this many queries after a merge see added blocking latency.
    merge_interference_queries: int = 50
    merge_blocking_us: float = 15_000.0

    block_size: int = 4096
    ssd_blocks: int = 1 << 17
    read_latency_us: float = 90.0
    write_latency_us: float = 20.0
    queue_depth: int = 32
    cpu_cost_per_hop_us: float = 10.0
    cpu_cost_per_query_us: float = 30.0
    seed: int = 0

    def node_capacity(self) -> int:
        return self.degree_limit + self.degree_slack

    def node_bytes(self) -> int:
        # int32 degree + int64 neighbor slots + float32 vector
        return 4 + 8 * self.node_capacity() + 4 * self.dim

    def validate(self) -> "DiskANNConfig":
        if self.node_bytes() > self.block_size:
            raise ValueError(
                f"node of {self.node_bytes()} bytes exceeds block size "
                f"{self.block_size}; lower degree_limit or dim"
            )
        return self


class _NodeStore:
    """One graph node per SSD block: vector + padded adjacency list."""

    def __init__(self, ssd: SimulatedSSD, config: DiskANNConfig) -> None:
        self.ssd = ssd
        self.config = config
        self._free = list(range(ssd.num_blocks - 1, -1, -1))

    def allocate(self) -> int:
        if not self._free:
            raise StorageError("DiskANN node store out of blocks")
        return self._free.pop()

    def release(self, block_id: int) -> None:
        self.ssd.trim([block_id])
        self._free.append(block_id)

    def encode(self, vector: np.ndarray, neighbors: np.ndarray) -> bytes:
        cap = self.config.node_capacity()
        padded = np.full(cap, -1, dtype=np.int64)
        padded[: len(neighbors)] = neighbors[:cap]
        return (
            struct.pack("<i", min(len(neighbors), cap))
            + padded.tobytes()
            + np.ascontiguousarray(vector, dtype=np.float32).tobytes()
        )

    def decode(self, payload: bytes) -> tuple[np.ndarray, np.ndarray]:
        cap = self.config.node_capacity()
        (degree,) = struct.unpack_from("<i", payload, 0)
        neighbors = np.frombuffer(payload, dtype=np.int64, count=cap, offset=4)
        vector = np.frombuffer(
            payload, dtype=np.float32, count=self.config.dim, offset=4 + 8 * cap
        )
        return vector.copy(), neighbors[:degree].copy()

    def write(self, block_id: int, vector: np.ndarray, neighbors: np.ndarray) -> float:
        return self.ssd.write_block(block_id, self.encode(vector, neighbors))

    def read(self, block_id: int) -> tuple[np.ndarray, np.ndarray, float]:
        payload, latency = self.ssd.read_block(block_id)
        vector, neighbors = self.decode(payload)
        return vector, neighbors, latency

    def read_batch(
        self, block_ids: list[int]
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
        payloads, latency = self.ssd.read_blocks(block_ids)
        return [self.decode(p) for p in payloads], latency


class FreshDiskANNIndex:
    """Streaming DiskANN with tombstone deletes and global streamingMerge."""

    def __init__(self, config: DiskANNConfig) -> None:
        self.config = config.validate()
        self.ssd = SimulatedSSD(
            config.ssd_blocks,
            SSDProfile(
                block_size=config.block_size,
                read_latency_us=config.read_latency_us,
                write_latency_us=config.write_latency_us,
                queue_depth=config.queue_depth,
            ),
        )
        self.store = _NodeStore(self.ssd, config)
        self.pq = ProductQuantizer(config.dim, config.pq_subspaces)
        self._rng = np.random.default_rng(config.seed)
        self._id_to_block: dict[int, int] = {}
        self._block_vector_cache: dict[int, np.ndarray] = {}
        self._pq_codes: dict[int, np.ndarray] = {}
        self._tombstones: set[int] = set()
        self._medoid: int | None = None  # a vector id
        self.merges_completed = 0
        self._merges_at_drain = 0  # merges_completed at the last drain()
        self._window_merges = 0  # merges in the window drain() last closed
        self.last_merge_io_us = 0.0
        self.background_io_us = 0.0
        self._interference_remaining = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
        config: DiskANNConfig | None = None,
    ) -> "FreshDiskANNIndex":
        vectors = as_matrix(vectors)
        config = config or DiskANNConfig(dim=vectors.shape[1])
        if config.dim != vectors.shape[1]:
            raise ValueError("config.dim must match vectors")
        if ids is None:
            ids = np.arange(len(vectors), dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        index = cls(config)
        adjacency, medoid_row = build_vamana(
            vectors,
            degree_limit=config.degree_limit,
            build_list_size=config.build_list_size,
            alpha=config.alpha,
            rng=index._rng,
        )
        index.pq.fit(vectors, index._rng)
        codes = index.pq.encode(vectors)
        for row, vid in enumerate(ids):
            vid = int(vid)
            block = index.store.allocate()
            index._id_to_block[vid] = block
            index.store.write(block, vectors[row], ids[adjacency[row]])
            index._pq_codes[vid] = codes[row]
        index._medoid = int(ids[medoid_row])
        return index

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def _read_node(self, vector_id: int) -> tuple[np.ndarray, np.ndarray, float]:
        block = self._id_to_block.get(vector_id)
        if block is None:
            raise IndexError_(f"vector {vector_id} not in DiskANN index")
        return self.store.read(block)

    def _beam_traverse(
        self, query: np.ndarray, list_size: int
    ) -> tuple[dict[int, tuple[float, np.ndarray, np.ndarray]], float, int]:
        """Beam search steered by PQ distances; reads nodes off disk.

        Returns (visited: id -> (exact distance, vector, neighbors),
        io latency, hop count).
        """
        if self._medoid is None or not self._id_to_block:
            return {}, 0.0, 0
        table = self.pq.distance_table(query)

        def pq_dist(vid: int) -> float:
            return float(self.pq.adc_distances(table, self._pq_codes[vid])[0])

        entry = self._medoid
        frontier: list[tuple[float, int]] = [(pq_dist(entry), entry)]
        best: list[tuple[float, int]] = [(-frontier[0][0], entry)]
        seen = {entry}
        visited: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}
        io_latency = 0.0
        hops = 0
        while frontier:
            batch: list[int] = []
            while frontier and len(batch) < self.config.beamwidth:
                dist, vid = heapq.heappop(frontier)
                if len(best) >= list_size and dist > -best[0][0]:
                    break
                if vid not in visited:
                    batch.append(vid)
            if not batch:
                break
            blocks = [self._id_to_block[vid] for vid in batch]
            nodes, latency = self.store.read_batch(blocks)
            io_latency += latency
            hops += 1
            for vid, (vector, neighbors) in zip(batch, nodes):
                exact = float(np.dot(vector - query, vector - query))
                visited[vid] = (exact, vector, neighbors)
                for nbr in neighbors:
                    nbr = int(nbr)
                    if nbr in seen or nbr not in self._pq_codes:
                        continue
                    seen.add(nbr)
                    d = pq_dist(nbr)
                    if len(best) < list_size or d < -best[0][0]:
                        heapq.heappush(frontier, (d, nbr))
                        heapq.heappush(best, (-d, nbr))
                        if len(best) > list_size:
                            heapq.heappop(best)
        return visited, io_latency, hops

    def query(self, request: QueryRequest) -> SearchResponse:
        """Approximate k-NN over live (non-tombstoned) vectors, one beam
        search per query row; ``nprobe`` has no meaning for a graph (the
        configured search list size stands in)."""
        return respond(request, lambda r: [self._search(q, r.k) for q in r.vectors])

    def _search(self, query: np.ndarray, k: int) -> SearchResult:
        query = as_vector(query, self.config.dim)
        visited, io_latency, hops = self._beam_traverse(
            query, max(self.config.search_list_size, k)
        )
        ranked = sorted(
            (
                (exact, vid)
                for vid, (exact, _, _) in visited.items()
                if vid not in self._tombstones
            ),
        )[:k]
        latency = (
            io_latency
            + self.config.cpu_cost_per_query_us
            + self.config.cpu_cost_per_hop_us * hops
        )
        if self._interference_remaining > 0:
            # This query overlapped a streamingMerge window: it queued
            # behind the merge's bulk I/O (paper: >20 ms P99.9 spikes).
            self._interference_remaining -= 1
            latency += float(self._rng.uniform(0.4, 1.0)) * self.config.merge_blocking_us
        return SearchResult(
            ids=np.array([vid for _, vid in ranked], dtype=np.int64),
            distances=np.array([d for d, _ in ranked], dtype=np.float32),
            latency_us=latency,
            postings_probed=hops,  # beam reads stand in for posting probes
            entries_scanned=len(visited),
            io_latency_us=io_latency,
        )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, vector_id: int, vector: np.ndarray) -> float:
        """Graph insert: greedy search + RobustPrune + reverse-edge patch.

        The graph is keyed by vector id, so re-inserting a deleted id
        first consolidates its tombstoned node away (``streaming_merge``).
        """
        vector = as_vector(vector, self.config.dim)
        if vector_id in self._tombstones:
            self.streaming_merge()
        if vector_id in self._id_to_block:
            raise IndexError_(f"vector {vector_id} already present")
        if not self._id_to_block:
            block = self.store.allocate()
            self._id_to_block[vector_id] = block
            latency = self.store.write(block, vector, np.empty(0, dtype=np.int64))
            if not self.pq.is_fitted:
                self.pq.fit(vector.reshape(1, -1), self._rng)
            self._pq_codes[vector_id] = self.pq.encode(vector)[0]
            self._medoid = vector_id
            return latency

        visited, io_latency, hops = self._beam_traverse(
            vector, self.config.insert_list_size
        )
        latency = io_latency + self.config.cpu_cost_per_hop_us * hops
        cand_ids = np.array(list(visited.keys()), dtype=np.int64)
        cand_vecs = np.vstack([visited[int(v)][1] for v in cand_ids])
        neighbors = robust_prune(
            vector, cand_ids, cand_vecs, self.config.alpha, self.config.degree_limit
        )
        block = self.store.allocate()
        self._id_to_block[vector_id] = block
        latency += self.store.write(block, vector, np.array(neighbors, dtype=np.int64))
        self._pq_codes[vector_id] = self.pq.encode(vector)[0]

        # Reverse edges: read-modify-write each new neighbor.
        for nbr in neighbors:
            nbr_block = self._id_to_block.get(nbr)
            if nbr_block is None:
                continue
            nbr_vec, nbr_adj, read_us = self.store.read(nbr_block)
            latency += read_us
            if vector_id in nbr_adj:
                continue
            nbr_adj = np.append(nbr_adj, vector_id)
            if len(nbr_adj) > self.config.node_capacity():
                keep_vecs = self._vectors_for(nbr_adj)
                nbr_adj = np.array(
                    robust_prune(
                        nbr_vec,
                        nbr_adj,
                        keep_vecs,
                        self.config.alpha,
                        self.config.degree_limit,
                    ),
                    dtype=np.int64,
                )
            latency += self.store.write(nbr_block, nbr_vec, nbr_adj)
        return latency

    def delete(self, vector_id: int) -> float:
        """Tombstone; triggers streamingMerge at the configured threshold."""
        if vector_id not in self._id_to_block:
            return 1.0
        self._tombstones.add(vector_id)
        if len(self._tombstones) >= self.config.merge_threshold:
            self.streaming_merge()
        return 1.0

    def _vectors_for(self, ids: np.ndarray) -> np.ndarray:
        out = np.zeros((len(ids), self.config.dim), dtype=np.float32)
        for row, vid in enumerate(ids):
            block = self._id_to_block.get(int(vid))
            if block is None:
                continue
            vector, _, _ = self.store.read(block)
            out[row] = vector
        return out

    # ------------------------------------------------------------------
    # streamingMerge: global consolidation
    # ------------------------------------------------------------------
    def streaming_merge(self) -> float:
        """Remove tombstoned nodes and patch the graph around them.

        For each live node pointing at deleted neighbors, the deleted
        entries are replaced by the deleted nodes' own neighborhoods and
        re-pruned (FreshDiskANN's delete consolidation). Every node block
        is read once; patched nodes are rewritten. Returns the simulated
        device time the merge consumed.
        """
        if not self._tombstones:
            return 0.0
        deleted = set(self._tombstones)
        merge_io = 0.0
        # Pass 1: cache deleted nodes' neighborhoods.
        deleted_adj: dict[int, np.ndarray] = {}
        for vid in deleted:
            _, neighbors, read_us = self._read_node(vid)
            merge_io += read_us
            deleted_adj[vid] = neighbors
        # Pass 2: patch every live node.
        for vid, block in list(self._id_to_block.items()):
            if vid in deleted:
                continue
            vector, neighbors, read_us = self.store.read(block)
            merge_io += read_us
            if not any(int(n) in deleted for n in neighbors):
                continue
            patched: list[int] = []
            for n in neighbors:
                n = int(n)
                if n in deleted:
                    patched.extend(
                        int(x)
                        for x in deleted_adj.get(n, ())
                        if int(x) not in deleted and int(x) != vid
                    )
                else:
                    patched.append(n)
            unique = np.array(sorted(set(patched)), dtype=np.int64)
            if len(unique) > self.config.degree_limit:
                unique = np.array(
                    robust_prune(
                        vector,
                        unique,
                        self._vectors_for(unique),
                        self.config.alpha,
                        self.config.degree_limit,
                    ),
                    dtype=np.int64,
                )
            merge_io += self.store.write(block, vector, unique)
        # Pass 3: reclaim deleted nodes.
        for vid in deleted:
            block = self._id_to_block.pop(vid)
            self.store.release(block)
            self._pq_codes.pop(vid, None)
        self._tombstones.clear()
        if self._medoid in deleted:
            self._medoid = next(iter(self._id_to_block), None)
        self.merges_completed += 1
        self.last_merge_io_us = merge_io
        self.background_io_us += merge_io
        self._interference_remaining = self.config.merge_interference_queries
        return merge_io

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def live_vector_count(self) -> int:
        return len(self._id_to_block) - len(self._tombstones)

    def drain(self) -> int:
        """Close one maintenance window; returns the merges run in it.

        Merges run inline when deletes cross the threshold, so there is
        nothing to wait for: a window only records whether one ran, which
        :meth:`memory_bytes` reads.
        """
        self._window_merges = self.merges_completed - self._merges_at_drain
        self._merges_at_drain = self.merges_completed
        return self._window_merges

    def memory_bytes(self) -> int:
        """Modelled DRAM: PQ codes + codebooks + id mapping.

        During a merge, FreshDiskANN materializes substantial extra state
        (the paper measures an extra ~60 GB at 100M scale); modelled here
        as the full adjacency working set, counted while the window the
        last :meth:`drain` closed ran a merge.
        """
        n = len(self._id_to_block)
        base = self.pq.memory_bytes(n) + n * 16  # id -> block mapping
        if self._window_merges:
            base += n * 8 * self.config.node_capacity()
        return base
