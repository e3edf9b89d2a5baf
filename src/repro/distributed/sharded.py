"""Sharded SPFresh: scatter-gather search over independent shards.

Design choices, mirroring production vector stores (and keeping each
shard byte-identical to the single-node system):

* **update routing** — a vector id hashes to exactly one shard, so every
  update is a single-shard operation and shards stay balanced in
  expectation regardless of data distribution;
* **search** — scatter to all shards, each runs its normal top-k, results
  merge by distance with replica dedup. The simulated query latency is
  the *maximum* shard latency (shards run in parallel) plus a small merge
  cost; the wall-clock path can optionally use real threads;
* **maintenance** — drain/gc/checkpoint fan out to every shard.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.api import QueryRequest, SearchResponse
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.spann.postings import dedup_top_k
from repro.spann.searcher import SearchResult
from repro.util.distance import as_matrix


class ShardRouter:
    """Deterministic id → shard mapping (multiplicative hashing)."""

    _MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = num_shards

    def shard_of(self, vector_id: int) -> int:
        """Scalar oracle; :meth:`partition` is pinned bit-identical to it."""
        mixed = (int(vector_id) * self._MIX) & 0xFFFFFFFFFFFFFFFF
        return (mixed >> 32) % self.num_shards

    def shard_of_batch(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized ``shard_of`` over an id array (int64 shard per row).

        uint64 arithmetic wraps modulo 2**64 exactly like the scalar
        path's ``& 0xFFFF...`` mask (negative ids reinterpret two's-
        complement, matching Python's masked product), so this is
        bit-identical to ``shard_of`` for the full int64 range.
        """
        ids_u = np.ascontiguousarray(ids, dtype=np.int64).view(np.uint64)
        mixed = ids_u * np.uint64(self._MIX)
        return (
            (mixed >> np.uint64(32)) % np.uint64(self.num_shards)
        ).astype(np.int64)

    def partition(self, ids: np.ndarray) -> list[np.ndarray]:
        """Row indices of ``ids`` belonging to each shard."""
        shards = self.shard_of_batch(ids)
        return [np.nonzero(shards == s)[0] for s in range(self.num_shards)]


class ShardedSPFresh:
    """N single-node SPFresh indexes behind one scatter-gather facade."""

    MERGE_COST_US = 10.0  # modelled cost of merging shard result lists

    def __init__(self, shards: list[SPFreshIndex], router: ShardRouter) -> None:
        if len(shards) != router.num_shards:
            raise ValueError("router and shard list disagree on shard count")
        self.shards = shards
        self.router = router
        self._pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
        num_shards: int = 4,
        config: SPFreshConfig | None = None,
    ) -> "ShardedSPFresh":
        """Partition the base set by id hash and build one index per shard."""
        vectors = as_matrix(vectors)
        if ids is None:
            ids = np.arange(len(vectors), dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        config = (config or SPFreshConfig(dim=vectors.shape[1])).validate()
        router = ShardRouter(num_shards)
        shards: list[SPFreshIndex] = []
        for shard_id, rows in enumerate(router.partition(ids)):
            if len(rows) == 0:
                raise ValueError(
                    f"shard {shard_id} would be empty; use fewer shards"
                )
            shard_config = config.with_overrides(seed=config.seed + shard_id)
            shards.append(
                SPFreshIndex.build(vectors[rows], ids=ids[rows], config=shard_config)
            )
        return cls(shards, router)

    # ------------------------------------------------------------------
    # updates: single-shard operations
    # ------------------------------------------------------------------
    def insert(self, vector_id: int, vector: np.ndarray) -> float:
        shard = self.shards[self.router.shard_of(vector_id)]
        return shard.insert(vector_id, vector)

    def delete(self, vector_id: int) -> float:
        shard = self.shards[self.router.shard_of(vector_id)]
        return shard.delete(vector_id)

    # ------------------------------------------------------------------
    # search: scatter-gather
    # ------------------------------------------------------------------
    def query(self, request: QueryRequest, *, parallel: bool = False) -> SearchResponse:
        """Scatter-gather a typed request: every shard answers the batch.

        Each shard runs its vectorized path once over all queries (one
        ParallelGET per shard for the whole batch), then the per-query
        shard results merge by distance with replica dedup — same shard
        order, same ``dedup_top_k`` — so per-query ids/distances are
        bit-identical to the single-query path whenever the engine's own
        batch/single parity holds. Simulated latency per query is the
        *maximum* shard latency (shards run in parallel) plus a small
        merge cost. ``parallel=True`` uses real threads for wall-clock
        benches; the simulated model is identical either way.
        """
        if not isinstance(request, QueryRequest):
            raise TypeError(
                f"query() wants a repro.api.QueryRequest, got "
                f"{type(request).__name__}"
            )
        request = request.with_vectors(
            as_matrix(request.vectors, self.shards[0].config.dim)
        )
        if len(request.vectors) == 0:
            # An empty batch is well-defined: no shard probed, no results.
            return SearchResponse(results=(), request=request)
        if parallel:
            pool = self._ensure_pool()
            per_shard = list(
                pool.map(lambda shard: shard.query(request).results, self.shards)
            )
        else:
            per_shard = [shard.query(request).results for shard in self.shards]
        merged: list[SearchResult] = []
        for qi in range(len(request.vectors)):
            results = [shard_results[qi] for shard_results in per_shard]
            all_ids = np.concatenate([r.ids for r in results])
            all_dists = np.concatenate([r.distances for r in results])
            top_ids, top_dists = dedup_top_k(all_ids, all_dists, request.k)
            merged.append(
                SearchResult(
                    ids=top_ids,
                    distances=top_dists,
                    latency_us=max(r.latency_us for r in results)
                    + self.MERGE_COST_US,
                    postings_probed=sum(r.postings_probed for r in results),
                    entries_scanned=sum(r.entries_scanned for r in results),
                    io_latency_us=max(r.io_latency_us for r in results),
                    truncated=any(r.truncated for r in results),
                )
            )
        return SearchResponse(results=tuple(merged), request=request)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=len(self.shards))
        return self._pool

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def drain(self) -> int:
        return sum(shard.drain() for shard in self.shards)

    def gc_pass(self) -> int:
        return sum(shard.gc_pass() for shard in self.shards)

    def close(self) -> None:
        """Shut down the thread pool and every shard's background workers.

        Idempotent. Callers that don't manage lifetimes explicitly should
        use the facade as a context manager (``with ShardedSPFresh.build(
        ...) as cluster:``) — without it, a forgotten ``close()`` leaks
        the pool's threads for the life of the process.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for shard in self.shards:
            shard.stop()

    def __enter__(self) -> "ShardedSPFresh":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def live_vector_count(self) -> int:
        return sum(shard.live_vector_count for shard in self.shards)

    @property
    def num_postings(self) -> int:
        return sum(shard.num_postings for shard in self.shards)

    def memory_bytes(self) -> int:
        return sum(shard.memory_bytes() for shard in self.shards)

    def shard_sizes(self) -> list[int]:
        return [shard.live_vector_count for shard in self.shards]
