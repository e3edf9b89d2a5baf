"""Cluster-scale SPFresh: placed shards, splits, replicas.

:class:`ClusterSPFresh` is the one sharded facade. *Placement* is its
one pluggable decision (:mod:`repro.distributed.placement`); everything
else — directory, replica groups, failover, the result merge — is the
same whichever placement is plugged in:

* **accuracy-preserving routing** — by default vectors are placed by
  clustered centroid groups (:class:`CentroidPlacement`); the router
  keeps a shard-level centroid summary and probes only the
  ``cluster_nprobe`` closest shards per query instead of broadcasting.
  ``broadcast=True`` keeps every-shard fan-out as the exactness oracle
  the routed path is gated against (CI asserts routed recall >= 0.95x
  broadcast while probing < 100% of shards). ``placement=
  HashPlacement(n)`` is the baseline of production vector stores: rows
  homed by id hash, every query answered by every shard;
* **shard lifecycle under growth** — :meth:`maybe_split` carves an
  oversized shard's centroid group in two and migrates the rerouted
  vectors to a freshly built shard: LIRE's split/reassign discipline at
  cluster granularity, audited by
  :func:`repro.core.invariants.check_cluster_invariants` (conservation
  extended across shards: every directory id live in exactly its home
  shard, replicas converged);
* **replica groups with failure/recovery** — each shard is a
  :class:`ShardGroup` of ``cluster_replication_factor`` bit-identical
  replicas. Reads pick one replica deterministically (seeded, so runs
  reproduce); a replica whose device fails (the
  :mod:`repro.storage.faults` layer, or an explicit :meth:`fail_replica`)
  is marked down and the read fails over to a live peer.
  :meth:`recover_replica` resyncs a downed replica from a healthy peer's
  live rows.

Two clocks, as everywhere in this repo: the *simulated* query latency is
``max(probed shard latencies) + route cost + merge cost`` (shards run in
parallel in the model) and is what CI gates; wall-clock fan-out runs on
a :class:`~repro.util.workers.WorkerPool` of threads or forked processes
(``query(..., pool=cluster.worker_pool(fork=...))``; informational
only). See docs/distributed.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api import QueryRequest, SearchResponse, respond
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.core.invariants import check_cluster_invariants
from repro.distributed.placement import CentroidPlacement, HashPlacement
from repro.spann.postings import dedup_top_k, live_view
from repro.spann.searcher import SearchResult
from repro.util.distance import as_matrix, as_vector
from repro.util.errors import IndexError_, StalePostingError, StorageError
from repro.util.workers import WorkerPool, run_serial


class ClusterUnavailableError(IndexError_):
    """Every replica of a probed shard is down (or failed the read)."""


@dataclass
class ClusterStats:
    """Cluster-level counters (shard counters live on each shard)."""

    queries: int = 0
    shards_probed: int = 0  # sum over queries of shards fanned out to
    broadcasts: int = 0  # queries answered by every shard
    shard_splits: int = 0
    migrated_vectors: int = 0
    replica_failovers: int = 0  # reads re-routed off a failed replica
    replica_resyncs: int = 0
    rerouted_updates: int = 0  # re-inserts that moved an id across shards


@dataclass
class ShardGroup:
    """One shard's replica set: bit-identical indexes behind one id."""

    shard_id: int
    replicas: list[SPFreshIndex]
    down: list[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("a shard group needs at least one replica")
        if not self.down:
            self.down = [False] * len(self.replicas)

    @property
    def primary(self) -> SPFreshIndex:
        """First live replica (authoritative for accounting/audits)."""
        for replica, is_down in zip(self.replicas, self.down):
            if not is_down:
                return replica
        raise ClusterUnavailableError(
            f"shard {self.shard_id}: all {len(self.replicas)} replicas down"
        )

    def live_indices(self) -> list[int]:
        return [i for i, is_down in enumerate(self.down) if not is_down]


def live_rows(index: SPFreshIndex) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated (ids, vectors) of every live row in one shard index.

    Sweeps postings (closure replicas collapse to one row per id) and the
    fresh tier, through the controller so the read cost is accounted.
    Used by shard splits (migration source) and replica resync.
    """
    ids_parts: list[np.ndarray] = []
    vec_parts: list[np.ndarray] = []
    for pid in index.controller.posting_ids():
        try:
            data, _ = index.controller.get(pid)
        except StalePostingError:
            continue
        live = live_view(data, index.version_map)
        if len(live.ids):
            ids_parts.append(live.ids)
            vec_parts.append(live.vectors)
    if index.fresh_tier is not None and len(index.fresh_tier) > 0:
        t_ids, t_vectors = index.fresh_tier.live_snapshot()
        if len(t_ids):
            ids_parts.append(t_ids)
            vec_parts.append(t_vectors)
    if not ids_parts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, index.config.dim), dtype=np.float32),
        )
    all_ids = np.concatenate(ids_parts)
    all_vecs = np.concatenate(vec_parts)
    _, first = np.unique(all_ids, return_index=True)
    first.sort()
    return all_ids[first], all_vecs[first]


def _answer_shard(group: ShardGroup, job) -> list[SearchResult] | StorageError:
    """What a shard worker runs: one replica answers one sub-batch.

    A device failure is an answer, not a crash: it travels back so the
    router can mark the replica down and ask the next one.
    """
    replica_id, sub_request = job
    try:
        return list(group.replicas[replica_id].query(sub_request))
    except StorageError as exc:
        return exc


class ClusterSPFresh:
    """Placed cluster of replicated single-node SPFresh shards."""

    MERGE_COST_US = 10.0  # modelled cost of merging shard result lists
    ROUTE_COST_US = 5.0  # modelled cost of ranking shard summaries per query

    def __init__(
        self,
        groups: list[ShardGroup],
        placement: CentroidPlacement | HashPlacement,
        directory: dict[int, int],
        config: SPFreshConfig,
        device_factory=None,
    ) -> None:
        if placement.num_shards != len(groups):
            raise ValueError("placement and shard groups disagree on count")
        self.groups = groups
        self.placement = placement
        self.directory = directory
        self.config = config
        self.stats = ClusterStats()
        self._device_factory = device_factory
        # Replica chosen by the most recent read, per shard (tests and the
        # determinism contract observe fan-out through this).
        self.last_replica_read: dict[int, int] = {}
        # Deterministic replica fan-out: a counter mixed with the seed
        # picks the replica, so a fixed seed reproduces the exact read
        # schedule (and therefore the exact failover sequence).
        self._read_counter = 0
        self._rng = np.random.default_rng(config.seed + 0x5EED)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
        num_shards: int = 4,
        config: SPFreshConfig | None = None,
        device_factory=None,
        placement: CentroidPlacement | HashPlacement | None = None,
    ) -> "ClusterSPFresh":
        """Fit the placement, partition the base set, build every replica.

        By default a :class:`CentroidPlacement` is fitted over ``vectors``
        for ``num_shards`` shards; a ready ``placement`` (say
        ``HashPlacement(8)``) is used as given and brings its own shard
        count. ``device_factory(shard_id, replica_id, config)`` optionally
        supplies each replica's block device — the hook the fault tests
        use to give one replica a
        :class:`~repro.storage.ssd.SimulatedSSD` built with ``faults=``.
        """
        vectors = as_matrix(vectors)
        if ids is None:
            ids = np.arange(len(vectors), dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) != len(vectors):
            raise ValueError("ids and vectors must have the same length")
        config = (config or SPFreshConfig(dim=vectors.shape[1])).validate()
        if placement is None:
            placement = CentroidPlacement.fit(
                vectors,
                num_shards,
                centroids_per_shard=config.cluster_centroids_per_shard,
                seed=config.seed,
            )
        homes = placement.homes(ids, vectors)
        groups: list[ShardGroup] = []
        directory: dict[int, int] = {}
        for shard_id in range(placement.num_shards):
            rows = np.nonzero(homes == shard_id)[0]
            if len(rows) == 0:
                raise ValueError(
                    f"shard {shard_id} would start empty; use fewer shards"
                )
            groups.append(
                cls._build_group(
                    shard_id,
                    vectors[rows],
                    ids[rows],
                    config,
                    device_factory,
                )
            )
            for vid in ids[rows]:
                directory[int(vid)] = shard_id
        return cls(groups, placement, directory, config, device_factory)

    @staticmethod
    def _shard_config(config: SPFreshConfig, shard_id: int) -> SPFreshConfig:
        # Every replica of a group shares one seed, so replica builds are
        # bit-identical; shards differ so their LIRE schedules decorrelate.
        return config.with_overrides(seed=config.seed + 101 * (shard_id + 1))

    @classmethod
    def _build_group(
        cls,
        shard_id: int,
        vectors: np.ndarray,
        ids: np.ndarray,
        config: SPFreshConfig,
        device_factory,
    ) -> ShardGroup:
        shard_config = cls._shard_config(config, shard_id)
        replicas = []
        for replica_id in range(config.cluster_replication_factor):
            device = (
                device_factory(shard_id, replica_id, shard_config)
                if device_factory is not None
                else None
            )
            replicas.append(
                SPFreshIndex.build(
                    vectors, ids=ids, config=shard_config, device=device
                )
            )
        return ShardGroup(shard_id=shard_id, replicas=replicas)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def query(
        self,
        request: QueryRequest,
        *,
        broadcast: bool = False,
        pool: WorkerPool | None = None,
    ) -> SearchResponse:
        """Answer a typed request through the placement's routing.

        Each query probes the shards the placement names — under centroid
        placement the ``cluster_nprobe`` whose summaries rank closest,
        under a hash all of them (``broadcast=True`` forces every shard —
        the exactness oracle). Per-shard work is batched: one engine call
        per probed shard covers all the queries routed to it. Simulated
        latency per query is ``max(probed shard latencies) + route cost +
        merge cost``. With a ``pool`` from :meth:`worker_pool` the
        per-shard calls run on its workers for the wall-clock path;
        routing, replica choice, failover, counters and the merge stay
        here, so the simulated model is identical.
        """

        def answer(request: QueryRequest) -> list[SearchResult]:
            request = request.with_vectors(
                as_matrix(request.vectors, self.config.dim)
            )
            nprobe = None if broadcast else self.config.cluster_nprobe
            plan = self.placement.shards_for_queries(request.vectors, nprobe)
            self.stats.queries += len(request.vectors)
            self.stats.shards_probed += sum(len(p) for p in plan)
            self.stats.broadcasts += sum(
                1 for p in plan if len(p) == len(self.groups)
            )
            shard_batches = self._per_shard_batches(plan)
            per_shard = self._run_shards(request, shard_batches, pool)
            return self._merge(request, plan, shard_batches, per_shard)

        return respond(request, answer)

    def _per_shard_batches(self, plan: list[np.ndarray]) -> dict[int, list[int]]:
        """Invert the routing plan: shard id -> query rows probing it."""
        batches: dict[int, list[int]] = {}
        for qi, shards in enumerate(plan):
            for shard_id in shards:
                batches.setdefault(int(shard_id), []).append(qi)
        return dict(sorted(batches.items()))

    def _run_shards(
        self,
        request: QueryRequest,
        shard_batches: dict[int, list[int]],
        pool: WorkerPool | None,
    ) -> dict[int, list[SearchResult]]:
        """Every probed shard's sub-batch, answered by one live replica.

        Each shard starts on its deterministic pick; a replica whose
        device errors mid-read (:class:`~repro.util.errors.StorageError`,
        e.g. an injected fault) is marked down and the shard is asked
        again on its next live replica, in ring order. One round of jobs
        runs in-process, or on ``pool`` (one worker per shard group).
        """
        if pool is not None and len(pool) != len(self.groups):
            raise ValueError(
                f"worker pool has {len(pool)} workers for {len(self.groups)} "
                f"shards: it predates a shard split; open a new one"
            )
        first = {s: self._next_replica(s) for s in shard_batches}
        jobs = {
            s: (first[s], request.with_vectors(request.vectors[rows]))
            for s, rows in shard_batches.items()
        }
        per_shard: dict[int, list[SearchResult]] = {}
        while jobs:
            if pool is None:
                answers = run_serial(self.groups, _answer_shard, jobs)
            else:
                answers = pool.run(jobs)
            retries = {}
            for shard_id, answer in answers.items():
                replica_id, sub_request = jobs[shard_id]
                if not isinstance(answer, StorageError):
                    if replica_id != first[shard_id]:
                        self.stats.replica_failovers += 1
                    self.last_replica_read[shard_id] = replica_id
                    per_shard[shard_id] = answer
                    continue
                group = self.groups[shard_id]
                group.down[replica_id] = True
                self.stats.replica_failovers += 1
                size = len(group.replicas)
                tried = (replica_id - first[shard_id]) % size + 1
                untried = (
                    (first[shard_id] + i) % size for i in range(tried, size)
                )
                successor = next((r for r in untried if not group.down[r]), None)
                if successor is None:
                    raise ClusterUnavailableError(
                        f"shard {shard_id}: no live replica could answer"
                    ) from answer
                retries[shard_id] = (successor, sub_request)
            jobs = retries
        return per_shard

    def _merge(
        self,
        request: QueryRequest,
        plan: list[np.ndarray],
        shard_batches: dict[int, list[int]],
        per_shard: dict[int, list[SearchResult]],
    ) -> list[SearchResult]:
        # Row position of each query inside every shard's sub-batch.
        positions = {
            shard_id: {qi: pos for pos, qi in enumerate(rows)}
            for shard_id, rows in shard_batches.items()
        }
        merged: list[SearchResult] = []
        for qi, shards in enumerate(plan):
            results = [
                per_shard[int(s)][positions[int(s)][qi]] for s in shards
            ]
            all_ids = np.concatenate([r.ids for r in results])
            all_dists = np.concatenate([r.distances for r in results])
            top_ids, top_dists = dedup_top_k(all_ids, all_dists, request.k)
            merged.append(
                SearchResult(
                    ids=top_ids,
                    distances=top_dists,
                    latency_us=max(r.latency_us for r in results)
                    + self.ROUTE_COST_US
                    + self.MERGE_COST_US,
                    postings_probed=sum(r.postings_probed for r in results),
                    entries_scanned=sum(r.entries_scanned for r in results),
                    io_latency_us=max(r.io_latency_us for r in results),
                    truncated=any(r.truncated for r in results),
                    fresh_entries_scanned=sum(
                        r.fresh_entries_scanned for r in results
                    ),
                    reranked_entries=sum(r.reranked_entries for r in results),
                )
            )
        return merged

    def _next_replica(self, shard_id: int) -> int:
        """Deterministic replica pick: seeded golden-ratio counter mix."""
        group = self.groups[shard_id]
        live = group.live_indices()
        if not live:
            raise ClusterUnavailableError(
                f"shard {shard_id}: all replicas down"
            )
        self._read_counter += 1
        mixed = (
            (self.config.seed + 0x5EED + self._read_counter * 0x9E3779B9)
            * 0x9E3779B97F4A7C15
        ) & 0xFFFFFFFFFFFFFFFF
        pick = live[(mixed >> 32) % len(live)]
        return pick

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, vector_id: int, vector: np.ndarray) -> float:
        """Insert one vector into the home shard its placement names.

        Writes fan out to every live replica of the group; the returned
        simulated latency is the slowest replica's (the ack waits for the
        full write quorum). A re-insert whose nearest centroid moved since
        (drift) is re-homed: deleted from the old shard, inserted fresh.
        """
        vector = as_vector(vector, self.config.dim)
        vector_id = int(vector_id)
        shard_id = int(
            self.placement.homes(np.array([vector_id]), vector[None])[0]
        )
        old = self.directory.get(vector_id)
        if old is not None and old != shard_id:
            self._apply_write(old, "delete", vector_id)
            self.stats.rerouted_updates += 1
        latency = self._apply_write(shard_id, "insert", vector_id, vector)
        self.directory[vector_id] = shard_id
        return latency

    def delete(self, vector_id: int) -> float:
        """Delete by directory lookup (single-group operation)."""
        vector_id = int(vector_id)
        shard_id = self.directory.pop(vector_id, None)
        if shard_id is None:
            raise IndexError_(f"vector {vector_id} is not in the cluster")
        return self._apply_write(shard_id, "delete", vector_id)

    def _apply_write(self, shard_id: int, op: str, vector_id: int, vector=None) -> float:
        group = self.groups[shard_id]
        live = group.live_indices()
        if not live:
            raise ClusterUnavailableError(
                f"shard {shard_id}: no live replica to write"
            )
        latencies = []
        for replica_id in live:
            replica = group.replicas[replica_id]
            try:
                if op == "insert":
                    latencies.append(replica.insert(vector_id, vector))
                else:
                    latencies.append(replica.delete(vector_id))
            except StorageError:
                group.down[replica_id] = True
                self.stats.replica_failovers += 1
        if not latencies:
            raise ClusterUnavailableError(
                f"shard {shard_id}: every replica failed the {op}"
            )
        return max(latencies)

    # ------------------------------------------------------------------
    # shard lifecycle (LIRE at cluster granularity)
    # ------------------------------------------------------------------
    def maybe_split(self) -> int:
        """Split shards over ``cluster_split_threshold``; returns count.

        Each pass picks the largest oversized shard, carves its centroid
        group in two, and migrates the rerouted vectors into a freshly
        built shard group — repeating until every shard is within bounds
        (mirroring the posting-level split cascade). A shard that owns a
        single region cannot be carved: under a hash placement, where
        every shard is one, this always returns 0.
        """
        threshold = self.config.cluster_split_threshold
        if threshold is None:
            return 0
        splits = 0
        while True:
            sizes = self.shard_sizes()
            worst = int(np.argmax(sizes))
            if sizes[worst] <= threshold:
                return splits
            if not self._split_shard(worst):
                return splits
            splits += 1

    def _split_shard(self, shard_id: int) -> bool:
        group = self.groups[shard_id]
        if self.placement.group_sizes()[shard_id] < 2:
            return False  # one region left: nothing to carve
        new_shard_id = len(self.groups)
        moved_centroids = self.placement.split_group(
            shard_id, new_shard_id, self._rng
        )
        ids, vectors = live_rows(group.primary)
        moving = self.placement.rows_moved(vectors, shard_id, moved_centroids)
        if not moving.any() or moving.all():
            self.placement.undo_split(shard_id, moved_centroids)
            return False
        moved_ids, moved_vectors = ids[moving], vectors[moving]
        self.groups.append(
            self._build_group(
                new_shard_id,
                moved_vectors,
                moved_ids,
                self.config,
                self._device_factory,
            )
        )
        for vid in moved_ids:
            self._apply_write(shard_id, "delete", int(vid))
            self.directory[int(vid)] = new_shard_id
        # Reclaim the migrated rows' space and settle LIRE before the
        # next sizing decision.
        for replica_id in group.live_indices():
            replica = group.replicas[replica_id]
            replica.gc_pass()
            replica.drain()
        self.stats.shard_splits += 1
        self.stats.migrated_vectors += int(moving.sum())
        return True

    # ------------------------------------------------------------------
    # failure / recovery
    # ------------------------------------------------------------------
    def fail_replica(self, shard_id: int, replica_id: int) -> None:
        """Mark one replica down (simulated detected device failure)."""
        self.groups[shard_id].down[replica_id] = True

    def recover_replica(self, shard_id: int, replica_id: int) -> int:
        """Resync a downed replica from a healthy peer; returns rows copied.

        The replica is rebuilt from the peer's deduplicated live rows (a
        full-copy resync — the cluster analogue of restoring from a peer
        snapshot) and marked live again.
        """
        group = self.groups[shard_id]
        peer = group.primary  # raises if nobody is up to copy from
        ids, vectors = live_rows(peer)
        if len(ids) == 0:
            raise ClusterUnavailableError(
                f"shard {shard_id}: peer has no live rows to resync from"
            )
        shard_config = self._shard_config(self.config, shard_id)
        device = (
            self._device_factory(shard_id, replica_id, shard_config)
            if self._device_factory is not None
            else None
        )
        old = group.replicas[replica_id]
        group.replicas[replica_id] = SPFreshIndex.build(
            vectors, ids=ids, config=shard_config, device=device
        )
        group.down[replica_id] = False
        old.stop()
        self.stats.replica_resyncs += 1
        return len(ids)

    # ------------------------------------------------------------------
    # maintenance / lifecycle
    # ------------------------------------------------------------------
    def _live_replicas(self):
        for group in self.groups:
            for replica_id in group.live_indices():
                yield group.replicas[replica_id]

    def drain(self) -> int:
        return sum(replica.drain() for replica in self._live_replicas())

    def gc_pass(self) -> int:
        return sum(replica.gc_pass() for replica in self._live_replicas())

    def worker_pool(self, *, fork: bool) -> WorkerPool:
        """One worker per shard group for ``query(..., pool=)``.

        ``fork=True`` workers answer from the replicas as they were at
        this call (see :mod:`repro.util.workers`); thread workers share
        them. Close it (it is a context manager) before the facade; a
        shard split outdates it.
        """
        return WorkerPool(self.groups, _answer_shard, fork=fork)

    def close(self) -> None:
        """Stop every replica's background workers. Idempotent."""
        for group in self.groups:
            for replica in group.replicas:
                replica.stop()

    def __enter__(self) -> "ClusterSPFresh":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.groups)

    @property
    def live_vector_count(self) -> int:
        return sum(g.primary.live_vector_count for g in self.groups)

    @property
    def num_postings(self) -> int:
        return sum(g.primary.num_postings for g in self.groups)

    def memory_bytes(self) -> int:
        return sum(
            replica.memory_bytes()
            for group in self.groups
            for replica in group.replicas
        ) + self.placement.memory_bytes()

    def shard_sizes(self) -> list[int]:
        return [g.primary.live_vector_count for g in self.groups]

    def shards_probed_fraction(self) -> float:
        """Mean fraction of shards probed per query so far (1.0 = broadcast)."""
        if self.stats.queries == 0:
            return 0.0
        return self.stats.shards_probed / (
            self.stats.queries * len(self.groups)
        )

    def check_invariants(self, **kwargs):
        """Cluster-wide audit; see docs/distributed.md."""
        return check_cluster_invariants(self, **kwargs)
