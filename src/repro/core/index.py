"""Public SPFresh index facade (paper §4).

:class:`SPFreshIndex` composes the SPANN substrate (static build, centroid
index, searcher), the storage engine (simulated SSD + Block Controller),
and the LIRE pipeline (Updater + Local Rebuilder) behind the interface a
vector-database user expects::

    index = SPFreshIndex.build(vectors, config=SPFreshConfig(dim=32))
    index.insert(vector_id, vector)
    index.delete(vector_id)
    response = index.query(QueryRequest.single(query, k=10))
    response.ids, response.distances, response.latency_us

Queries travel as typed :class:`~repro.api.QueryRequest` objects (knobs:
``nprobe``, ``rerank_k``, ``quantized``, ``tenant``) through
:meth:`query`, the only search entry point — see ``docs/api.md``.

Construction paths: :meth:`build` (static SPANN build), :meth:`recover`
(snapshot + WAL replay after a crash). Rebuild jobs run inline by default
(``config.synchronous_rebuild``) or on background threads via
:meth:`start` / :meth:`stop`.
"""

from __future__ import annotations

import numpy as np

from repro.api import QueryRequest, SearchResponse
from repro.centroids import make_centroid_index
from repro.core.config import SPFreshConfig
from repro.core.fresh_tier import FreshTier
from repro.core.ids import IdAllocator
from repro.core.jobs import FlushJob, JobQueue, MergeJob, PostingLockManager
from repro.core.rebuilder import LocalRebuilder
from repro.core.stats import LireStats
from repro.core.updater import PostingWriter, Updater
from repro.core.version_map import VersionMap
from repro.metrics.profiling import Profiler, format_report
from repro.spann.build import build_plan
from repro.spann.searcher import SearchResult, SpannSearcher
from repro.storage.controller import BlockController
from repro.quantize import make_quantizer
from repro.storage.layout import PostingCodec, PostingData
from repro.storage.snapshot import SnapshotManager
from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.storage.wal import WriteAheadLog
from repro.util.distance import as_matrix, as_vector
from repro.util.errors import StalePostingError

__all__ = ["SPFreshIndex", "SearchResult"]


class SPFreshIndex:
    """Disk-based ANNS index with in-place updates via LIRE."""

    def __init__(
        self,
        config: SPFreshConfig,
        ssd: SimulatedSSD,
        controller: BlockController,
        centroid_index,
        version_map: VersionMap,
        posting_ids: IdAllocator,
        wal: WriteAheadLog | None = None,
        snapshots: SnapshotManager | None = None,
    ) -> None:
        self.config = config.validate()
        self.ssd = ssd
        self.controller = controller
        self.centroid_index = centroid_index
        self.version_map = version_map
        self.posting_ids = posting_ids
        self.wal = wal
        self.snapshots = snapshots
        self.stats = LireStats()
        self.locks = PostingLockManager(stats=self.stats)
        self.job_queue = JobQueue()
        # One profiler instance spans the whole engine so a snapshot shows
        # where wall-clock time went across search, storage and rebuilds.
        self.profiler = Profiler(enabled=config.enable_profiling)
        controller.profiler = self.profiler
        # LSM-style memory tier for fresh writes (docs/fresh-tier.md).
        # None when disabled so every component keeps the classic path.
        self.fresh_tier = (
            FreshTier(config.dim, version_map)
            if config.enable_fresh_tier
            else None
        )
        # The one write path (docs/lire-protocol.md): foreground inserts
        # and every background copy reach postings through this object.
        self.writer = PostingWriter(
            centroid_index,
            controller,
            self.locks,
            self.job_queue,
            self.stats,
            config,
            posting_ids,
        )
        self.updater = Updater(
            self.writer,
            version_map,
            wal=wal,
            profiler=self.profiler,
            fresh_tier=self.fresh_tier,
        )
        self.rebuilder = LocalRebuilder(
            self.writer,
            version_map,
            rng=np.random.default_rng(config.seed + 1),
            profiler=self.profiler,
            fresh_tier=self.fresh_tier,
        )
        # The fitted quantizer lives on the codec when the index stores
        # compressed codes (docs/quantization.md); None on the exact layout.
        self.quantizer = controller.codec.quantizer
        self.searcher = SpannSearcher(
            centroid_index,
            controller,
            version_map,
            default_nprobe=config.default_nprobe,
            latency_budget_us=config.search_latency_budget_us,
            cpu_cost_per_entry_us=config.cpu_cost_per_entry_us,
            cpu_cost_per_query_us=config.cpu_cost_per_query_us,
            min_posting_size=config.min_posting_size,
            prune_epsilon=config.search_prune_epsilon,
            profiler=self.profiler,
            fresh_tier=self.fresh_tier,
            rerank_k=config.quant_rerank_k,
        )
        self._background_running = False
        # Populated by restore_index() after a crash recovery; None for a
        # freshly built index. See repro.core.recovery.RecoveryReport.
        self.last_recovery = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
        config: SPFreshConfig | None = None,
        wal: WriteAheadLog | None = None,
        snapshots: SnapshotManager | None = None,
        device: SimulatedSSD | None = None,
    ) -> "SPFreshIndex":
        """Build a fresh index from a static vector set (SPANN build).

        ``device`` lets callers supply a pre-constructed block device — in
        particular a :class:`~repro.storage.ssd.SimulatedSSD` opened with
        ``path=`` for a durable index that a later process can
        :meth:`recover`, or one with ``faults=`` for crash tests.
        """
        vectors = as_matrix(vectors)
        config = (config or SPFreshConfig(dim=vectors.shape[1])).validate()
        if config.dim != vectors.shape[1]:
            config = config.with_overrides(dim=vectors.shape[1])
        if ids is None:
            ids = np.arange(len(vectors), dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) != len(vectors):
            raise ValueError("ids and vectors must have the same length")

        rng = np.random.default_rng(config.seed)
        plan = build_plan(vectors, config, rng)

        ssd = device or SimulatedSSD(
            config.ssd_blocks,
            SSDProfile(
                block_size=config.block_size,
                read_latency_us=config.read_latency_us,
                write_latency_us=config.write_latency_us,
                queue_depth=config.queue_depth,
            ),
        )
        quantizer = None
        if config.quant_enabled:
            # Codebooks are trained once at build time on (a sample of)
            # the base vectors, then persisted in snapshots; the codec
            # owns the fitted quantizer so every posting rewrite re-encodes
            # codes deterministically (docs/quantization.md).
            quantizer = make_quantizer(
                config.quant_kind,
                config.dim,
                subspaces=config.quant_subspaces,
                codebook_size=config.quant_codebook_size,
            )
            quantizer.fit(vectors, rng)
        controller = BlockController(ssd, PostingCodec(config.dim, config.block_size, quantizer))
        version_map = VersionMap(initial_capacity=max(int(ids.max()) + 1, 1024))
        for vid in ids:
            version_map.register(int(vid))

        centroid_index = make_centroid_index(config.centroid_index_kind, config.dim)
        for pid, (centroid, rows) in enumerate(zip(plan.centroids, plan.members)):
            posting = PostingData.from_rows(
                ids[rows], np.zeros(len(rows), dtype=np.uint8), vectors[rows]
            )
            controller.create(pid, posting)
            centroid_index.add(pid, centroid)

        index = cls(
            config=config,
            ssd=ssd,
            controller=controller,
            centroid_index=centroid_index,
            version_map=version_map,
            posting_ids=IdAllocator(plan.num_postings),
            wal=wal,
            snapshots=snapshots,
        )
        # Boundary replication can leave dense-region postings over the
        # split limit; normalize them immediately so the index starts in
        # the well-balanced state LIRE's lightweight maintenance assumes.
        if config.enable_split:
            from repro.core.jobs import SplitJob

            for pid in controller.posting_ids():
                if controller.length(pid) > config.max_posting_size:
                    index.job_queue.put(SplitJob(posting_id=pid))
            index.rebuilder.drain()
        if snapshots is not None:
            # Copy-on-write deferral keeps snapshot-referenced blocks
            # readable until the next checkpoint flushes the pre-release
            # buffer. Without a snapshot manager nothing ever needs the
            # superseded blocks, so they recycle immediately.
            controller.begin_defer_release()
        return index

    @classmethod
    def recover(
        cls,
        ssd: SimulatedSSD,
        config: SPFreshConfig,
        snapshots: SnapshotManager,
        wal: WriteAheadLog | None = None,
    ) -> "SPFreshIndex":
        """Restore an index from the latest snapshot plus WAL replay (§4.4)."""
        from repro.core.recovery import restore_index  # local import: cycle

        return restore_index(cls, ssd, config, snapshots, wal)

    # ------------------------------------------------------------------
    # queries and updates
    # ------------------------------------------------------------------
    def query(self, request: QueryRequest) -> SearchResponse:
        """Answer a typed :class:`~repro.api.QueryRequest`.

        The one search entry point. Single-vector requests and batches
        run the same searcher pipeline; a single query is additionally
        subject to the latency budget. Both share the maintenance side
        effect (undersized postings seen during the scan schedule merge
        jobs).
        """
        if not isinstance(request, QueryRequest):
            raise TypeError(
                f"query() wants a repro.api.QueryRequest, got "
                f"{type(request).__name__}"
            )
        if len(request.vectors) == 0:
            # An empty batch is well-defined: nothing probed, no results.
            return SearchResponse(results=(), request=request)
        if request.is_single:
            results = [
                self.searcher.search(
                    as_vector(request.vectors[0], self.config.dim),
                    request.k,
                    request.nprobe,
                    rerank_k=request.rerank_k,
                    quantized=request.quantized,
                )
            ]
        else:
            results = self.searcher.search_many(
                as_matrix(request.vectors, self.config.dim),
                request.k,
                request.nprobe,
                rerank_k=request.rerank_k,
                quantized=request.quantized,
            )
        if self.config.enable_merge:
            scheduled = False
            for result in results:
                for pid in result.undersized_postings:
                    scheduled = (
                        self.job_queue.put(MergeJob(posting_id=pid)) or scheduled
                    )
            if scheduled and self.config.synchronous_rebuild:
                self.rebuilder.drain()
        return SearchResponse(results=tuple(results), request=request)

    def insert(self, vector_id: int, vector: np.ndarray) -> float:
        """Insert one vector; returns foreground simulated latency (us)."""
        latency = self.updater.insert(vector_id, vector)
        self._maybe_drain()
        return latency

    def delete(self, vector_id: int) -> float:
        """Delete one vector (tombstone; space reclaimed lazily)."""
        latency = self.updater.delete(vector_id)
        self._maybe_drain()
        return latency

    def insert_batch(self, ids: np.ndarray, vectors: np.ndarray) -> list[float]:
        vectors = as_matrix(vectors, self.config.dim)
        if len(ids) != len(vectors):
            raise ValueError("ids and vectors must have the same length")
        return [self.insert(int(vid), vec) for vid, vec in zip(ids, vectors)]

    def delete_batch(self, ids: np.ndarray) -> list[float]:
        return [self.delete(int(vid)) for vid in ids]

    def _maybe_drain(self) -> None:
        if self.config.synchronous_rebuild and not self._background_running:
            self.rebuilder.drain()

    # ------------------------------------------------------------------
    # background pipeline control
    # ------------------------------------------------------------------
    def start(self, num_workers: int | None = None) -> None:
        """Start background rebuild workers (asynchronous pipeline mode)."""
        self.rebuilder.start(num_workers)
        self._background_running = True

    def stop(self) -> None:
        """Drain outstanding jobs and stop background workers."""
        if self._background_running:
            self.rebuilder.wait_idle()
            self.rebuilder.stop()
            self._background_running = False

    def drain(self) -> int:
        """Run all pending rebuild jobs to completion (synchronous)."""
        if self._background_running:
            self.rebuilder.wait_idle()
            return 0
        return self.rebuilder.drain()

    def flush_fresh_tier(self, max_vectors: int | None = None) -> int:
        """Flush buffered fresh-tier vectors to postings now.

        Returns the number of vectors moved to disk. A no-op (returning 0)
        when the tier is disabled or empty. ``max_vectors`` bounds one
        flush — tests use it to park the index mid-flush.
        """
        if self.fresh_tier is None or len(self.fresh_tier) == 0:
            return 0
        before = self.stats.fresh_flushed_vectors
        self.job_queue.put(FlushJob(max_vectors=max_vectors))
        self.drain()
        return self.stats.fresh_flushed_vectors - before

    # ------------------------------------------------------------------
    # maintenance / introspection
    # ------------------------------------------------------------------
    def profile_snapshot(self) -> dict[str, dict]:
        """Wall-clock profile per stage (empty unless ``enable_profiling``)."""
        return self.profiler.snapshot()

    def profile_report(self, title: str = "wall-clock profile") -> str:
        """Human-readable table of :meth:`profile_snapshot`."""
        return format_report(self.profile_snapshot(), title)

    def check_invariants(self, **kwargs):
        """Audit the index against the LIRE end-state invariants.

        Thin wrapper over :func:`repro.core.invariants.check_invariants`;
        see that module for the properties verified and the knobs.
        """
        from repro.core.invariants import check_invariants

        return check_invariants(self, **kwargs)

    def checkpoint(self) -> int:
        """Take a crash-consistent snapshot and truncate the WAL (§4.4)."""
        if self.snapshots is None:
            raise ValueError("index was created without a SnapshotManager")
        # The snapshot captures only disk-resident postings, so buffered
        # fresh-tier rows must land on disk before the WAL (their only
        # durable record) is truncated.
        self.flush_fresh_tier()
        self.drain()
        from repro.core.recovery import collect_state

        # The snapshot references device blocks: make them durable first.
        self.ssd.sync()
        generation = self.snapshots.save(collect_state(self))
        # Blocks freed before this snapshot are now unreachable from any
        # restorable state: release them and open a new deferral window.
        self.controller.end_defer_release()
        self.controller.begin_defer_release()
        if self.wal is not None:
            self.wal.truncate()
        return generation

    def gc_pass(self, max_postings: int | None = None) -> int:
        """Rewrite postings to drop dead entries; returns postings rewritten.

        SPFresh performs GC lazily inside split jobs; this explicit pass is
        what the SPANN+ baseline's background garbage collection uses.
        """
        rewritten = 0
        for pid in self.controller.posting_ids():
            if max_postings is not None and rewritten >= max_postings:
                break
            rewritten += self.rebuilder.gc_posting(pid)
        return rewritten

    @property
    def num_postings(self) -> int:
        return self.controller.num_postings

    @property
    def live_vector_count(self) -> int:
        return self.version_map.live_count

    def posting_sizes(self) -> np.ndarray:
        """On-disk entry counts per posting (includes stale replicas)."""
        return np.array(
            [self.controller.length(pid) for pid in self.controller.posting_ids()],
            dtype=np.int64,
        )

    def memory_bytes(self) -> int:
        """Modelled DRAM footprint: centroids + version map + block mapping
        (+ buffered fresh-tier rows when the tier is enabled)."""
        total = (
            self.centroid_index.memory_bytes()
            + self.version_map.memory_bytes()
            + self.controller.mapping_memory_bytes()
        )
        if self.fresh_tier is not None:
            total += self.fresh_tier.memory_bytes()
        return total

    def replica_histogram(self) -> dict[int, int]:
        """Live replica count distribution across postings (§5.2.2 stat)."""
        counts: dict[int, int] = {}
        for pid in self.controller.posting_ids():
            try:
                data, _ = self.controller.get(pid)
            except StalePostingError:
                continue  # deleted concurrently; real storage errors propagate
            mask = self.version_map.live_mask(data.ids, data.versions)
            for vid in data.ids[mask]:
                counts[int(vid)] = counts.get(int(vid), 0) + 1
        histogram: dict[int, int] = {}
        for replica_count in counts.values():
            histogram[replica_count] = histogram.get(replica_count, 0) + 1
        return histogram
