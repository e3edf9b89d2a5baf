"""Tests for the cluster model: placement, routing, splits, replicas, pools.

Centroid placement is the default under test; what holds whatever the
placement (worker-pool fan-out, failover, the audit) runs over both, and
what only a hash does is in test_distributed.py.
"""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.datasets import exact_knn, make_arrival_trace
from repro.distributed import (
    CentroidPlacement,
    ClusterSPFresh,
    ClusterUnavailableError,
    HashPlacement,
)
from repro.serving import ServingFrontend
from repro.storage.faults import FaultInjectingSSD, FaultPlan
from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.util.errors import IndexError_
from repro.util.workers import fork_available
from tests.conftest import DIM
from tests.helpers import EXECUTORS, assert_same_results


@pytest.fixture
def cluster_config(small_config):
    return small_config.with_overrides(
        cluster_nprobe=2, cluster_centroids_per_shard=4
    )


@pytest.fixture
def cluster(vectors, cluster_config):
    with ClusterSPFresh.build(
        vectors, num_shards=3, config=cluster_config
    ) as index:
        yield index


@pytest.fixture
def replicated(vectors, cluster_config):
    config = cluster_config.with_overrides(cluster_replication_factor=2)
    with ClusterSPFresh.build(vectors, num_shards=3, config=config) as index:
        yield index


class TestPlacement:
    def test_fit_is_deterministic(self, vectors):
        a = CentroidPlacement.fit(vectors, 3, centroids_per_shard=4, seed=9)
        b = CentroidPlacement.fit(vectors, 3, centroids_per_shard=4, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.shard_of_centroid, b.shard_of_centroid)

    def test_every_shard_owns_a_region(self, vectors):
        placement = CentroidPlacement.fit(vectors, 3, centroids_per_shard=4)
        sizes = placement.group_sizes()
        assert len(sizes) == 3
        assert sizes.min() >= 1
        assert sizes.max() / sizes.min() <= 3.0

    def test_route_vectors_in_range(self, vectors):
        placement = CentroidPlacement.fit(vectors, 3, centroids_per_shard=4)
        homes = placement.homes(None, vectors)
        assert homes.min() >= 0 and homes.max() < 3
        assert len(homes) == len(vectors)

    def test_shards_for_queries_respects_nprobe(self, vectors):
        placement = CentroidPlacement.fit(vectors, 3, centroids_per_shard=4)
        queries = vectors[:5]
        for shards in placement.shards_for_queries(queries, 2):
            assert len(shards) == 2
        for shards in placement.shards_for_queries(queries, None):
            assert sorted(shards) == [0, 1, 2]
        for shards in placement.shards_for_queries(queries, 99):
            assert sorted(shards) == [0, 1, 2]

    def test_split_group_moves_some_keeps_some(self, vectors):
        placement = CentroidPlacement.fit(vectors, 3, centroids_per_shard=4)
        rng = np.random.default_rng(0)
        before = placement.group_sizes()[0]
        moved = placement.split_group(0, 3, rng)
        assert 1 <= len(moved) < before
        assert placement.num_shards == 4
        assert (placement.shard_of_centroid[moved] == 3).all()
        assert placement.group_sizes()[0] >= 1

    def test_too_few_vectors_rejected(self, rng):
        few = rng.normal(size=(3, DIM)).astype(np.float32)
        with pytest.raises(ValueError):
            CentroidPlacement.fit(few, 64)


class TestBuild:
    def test_all_vectors_placed(self, cluster, vectors):
        assert cluster.num_shards == 3
        assert cluster.live_vector_count == len(vectors)
        assert sum(cluster.shard_sizes()) == len(vectors)
        assert len(cluster.directory) == len(vectors)

    def test_fresh_build_passes_audit(self, cluster):
        report = cluster.check_invariants()
        assert report.ok, report.failures
        assert report.conservation_violations == 0

    def test_placement_and_directory_agree(self, cluster, vectors):
        homes = cluster.placement.homes(None, vectors)
        for vid, home in enumerate(homes):
            assert cluster.directory[vid] == home


class TestRoutedSearch:
    def test_broadcast_matches_exact(self, cluster, vectors):
        queries = vectors[:10] + 0.01
        gt = exact_knn(vectors, np.arange(len(vectors)), queries, 5)
        request = QueryRequest(vectors=queries, k=5, nprobe=10**6)
        response = cluster.query(request, broadcast=True)
        for i, result in enumerate(response.results):
            assert set(map(int, result.ids)) == set(map(int, gt[i]))

    def test_routed_recall_close_to_broadcast(self, cluster, vectors):
        queries = vectors[:40] + 0.01
        request = QueryRequest(vectors=queries, k=5, nprobe=10**6)
        routed = cluster.query(request)
        broadcast = cluster.query(request, broadcast=True)
        hits = total = 0
        for r, b in zip(routed.results, broadcast.results):
            hits += len(set(map(int, r.ids)) & set(map(int, b.ids)))
            total += len(b.ids)
        assert hits / total >= 0.9
        assert cluster.shards_probed_fraction() < 1.0

    def test_routed_probes_nprobe_shards(self, cluster, vectors):
        request = QueryRequest(vectors=vectors[:7], k=3)
        cluster.query(request)
        assert cluster.stats.queries == 7
        assert cluster.stats.shards_probed == 7 * 2  # cluster_nprobe=2

    def test_latency_model(self, cluster, vectors):
        request = QueryRequest(vectors=vectors[:3], k=5)
        for result in cluster.query(request).results:
            floor = (
                cluster.config.cluster.route_cost_us
                + ClusterSPFresh.MERGE_COST_US
            )
            assert result.latency_us > floor
            assert result.io_latency_us <= result.latency_us

    def test_parallel_mode_same_results(self, cluster, vectors):
        request = QueryRequest(vectors=vectors[:8] + 0.01, k=5)
        serial = cluster.query(request)
        with cluster.worker_pool(fork=False) as pool:
            parallel = cluster.query(request, pool=pool)
        for s, p in zip(serial.results, parallel.results):
            np.testing.assert_array_equal(s.ids, p.ids)
            np.testing.assert_array_equal(s.distances, p.distances)

    def test_rejects_untyped_query(self, cluster, vectors):
        with pytest.raises(TypeError):
            cluster.query(vectors[0])


class TestUpdates:
    def test_insert_routes_by_centroid(self, cluster, rng):
        vec = rng.normal(size=DIM).astype(np.float32)
        want = int(cluster.placement.homes(None, vec[None])[0])
        before = cluster.shard_sizes()
        cluster.insert(90_000, vec)
        after = cluster.shard_sizes()
        assert cluster.directory[90_000] == want
        assert after[want] == before[want] + 1
        assert sum(after) == sum(before) + 1

    def test_inserted_vector_found(self, cluster, rng):
        vec = rng.normal(size=DIM).astype(np.float32)
        cluster.insert(91_000, vec)
        request = QueryRequest.single(vec, k=1, nprobe=10**6)
        result = cluster.query(request, broadcast=True).result
        assert int(result.ids[0]) == 91_000

    def test_delete_hides_and_missing_raises(self, cluster, vectors):
        cluster.delete(5)
        request = QueryRequest.single(vectors[5], k=10, nprobe=10**6)
        result = cluster.query(request, broadcast=True).result
        assert 5 not in set(map(int, result.ids))
        with pytest.raises(IndexError_):
            cluster.delete(5)

    def test_reinsert_rehomes_on_drift(self, cluster, vectors):
        homes = cluster.placement.homes(None, vectors)
        a = int(np.nonzero(homes == homes[0])[0][0])
        b = int(np.nonzero(homes != homes[0])[0][0])
        cluster.insert(95_000, vectors[a])
        assert cluster.directory[95_000] == homes[a]
        cluster.insert(95_000, vectors[b])
        assert cluster.directory[95_000] == homes[b]
        assert cluster.stats.rerouted_updates == 1
        report = cluster.check_invariants()
        assert report.ok, report.failures
        assert report.duplicate_ids == []


class TestSplit:
    def test_hot_shard_splits_and_conserves(self, vectors, cluster_config):
        config = cluster_config.with_overrides(cluster_split_threshold=160)
        rng = np.random.default_rng(11)
        with ClusterSPFresh.build(
            vectors, num_shards=3, config=config
        ) as cluster:
            hot = (
                vectors[0][None]
                + rng.normal(scale=0.3, size=(80, DIM)).astype(np.float32)
            ).astype(np.float32)
            for i, vec in enumerate(hot):
                cluster.insert(10_000 + i, vec)
            assert max(cluster.shard_sizes()) > 160
            splits = cluster.maybe_split()
            assert splits >= 1
            assert cluster.num_shards == 3 + splits
            assert cluster.stats.migrated_vectors > 0
            assert cluster.placement.num_shards == cluster.num_shards
            # Conservation across the migration: nothing lost, nothing
            # duplicated, every id where its directory entry says.
            total = len(vectors) + len(hot)
            assert sum(cluster.shard_sizes()) == total
            assert len(cluster.directory) == total
            report = cluster.check_invariants()
            assert report.ok, report.failures
            assert report.conservation_violations == 0

    def test_post_split_broadcast_still_exact(self, vectors, cluster_config):
        config = cluster_config.with_overrides(cluster_split_threshold=160)
        rng = np.random.default_rng(12)
        with ClusterSPFresh.build(
            vectors, num_shards=3, config=config
        ) as cluster:
            hot = (
                vectors[0][None]
                + rng.normal(scale=0.3, size=(80, DIM)).astype(np.float32)
            ).astype(np.float32)
            for i, vec in enumerate(hot):
                cluster.insert(10_000 + i, vec)
            assert cluster.maybe_split() >= 1
            all_vectors = np.concatenate([vectors, hot])
            all_ids = np.concatenate(
                [np.arange(len(vectors)), 10_000 + np.arange(len(hot))]
            )
            queries = np.concatenate([vectors[:6], hot[:6]]) + 0.01
            gt = exact_knn(all_vectors, all_ids, queries, 5)
            request = QueryRequest(vectors=queries, k=5, nprobe=10**6)
            response = cluster.query(request, broadcast=True)
            for i, result in enumerate(response.results):
                assert set(map(int, result.ids)) == set(map(int, gt[i]))

    def test_no_threshold_means_no_splits(self, cluster):
        assert cluster.maybe_split() == 0
        assert cluster.num_shards == 3


class TestReplicas:
    def test_fanout_deterministic_under_fixed_seed(self, vectors, cluster_config):
        config = cluster_config.with_overrides(cluster_replication_factor=2)
        picks = []
        for _ in range(2):
            with ClusterSPFresh.build(
                vectors, num_shards=3, config=config
            ) as cluster:
                trail = []
                for q in vectors[:15]:
                    cluster.query(QueryRequest.single(q, k=3))
                    trail.append(dict(cluster.last_replica_read))
                picks.append(trail)
        assert picks[0] == picks[1]

    def test_reads_spread_over_replicas(self, replicated, vectors):
        seen: dict[int, set[int]] = {}
        for q in vectors[:30]:
            replicated.query(QueryRequest.single(q, k=3), broadcast=True)
            for shard, replica in replicated.last_replica_read.items():
                seen.setdefault(shard, set()).add(replica)
        assert any(len(replicas) == 2 for replicas in seen.values())

    def test_replicas_bit_identical(self, replicated):
        report = replicated.check_invariants()
        assert report.ok, report.failures
        assert report.diverged_replicas == []

    def test_read_skips_downed_replica(self, replicated, vectors):
        replicated.fail_replica(0, 0)
        for q in vectors[:10]:
            replicated.query(QueryRequest.single(q, k=3), broadcast=True)
            assert replicated.last_replica_read[0] == 1

    def test_all_replicas_down_is_unavailable(self, replicated, vectors):
        replicated.fail_replica(0, 0)
        replicated.fail_replica(0, 1)
        with pytest.raises(ClusterUnavailableError):
            replicated.query(
                QueryRequest.single(vectors[0], k=3), broadcast=True
            )

    def test_recover_replica_resyncs_writes(self, replicated, rng):
        replicated.fail_replica(0, 0)
        for i in range(20):
            replicated.insert(
                80_000 + i, rng.normal(size=DIM).astype(np.float32)
            )
        rows = replicated.recover_replica(0, 0)
        assert rows == replicated.groups[0].primary.live_vector_count
        assert not replicated.groups[0].down[0]
        assert replicated.stats.replica_resyncs == 1
        report = replicated.check_invariants()
        assert report.ok, report.failures
        assert report.diverged_replicas == []

    def test_audit_flags_diverged_replica(self, replicated, rng):
        # Bypass the cluster write path: one replica silently gains a row.
        replicated.groups[0].replicas[1].insert(
            70_000, rng.normal(size=DIM).astype(np.float32)
        )
        report = replicated.check_invariants()
        assert not report.ok
        assert (0, 1) in report.diverged_replicas
        assert report.conservation_violations > 0
        with pytest.raises(IndexError_):
            report.raise_if_failed()


class TestFaultInjection:
    def test_device_fault_fails_over_mid_read(self, vectors, cluster_config):
        config = cluster_config.with_overrides(cluster_replication_factor=2)
        plan = FaultPlan(seed=3, read_error_rate=1.0).disarm()

        def device_factory(shard_id, replica_id, shard_config):
            device = SimulatedSSD(
                shard_config.ssd_blocks,
                SSDProfile(block_size=shard_config.block_size),
            )
            if shard_id == 0 and replica_id == 0:
                return FaultInjectingSSD(device, plan)
            return device

        with ClusterSPFresh.build(
            vectors, num_shards=3, config=config, device_factory=device_factory
        ) as cluster:
            plan.arm()  # every read on shard 0 / replica 0 now errors
            for q in vectors[:20]:
                result = cluster.query(
                    QueryRequest.single(q, k=3), broadcast=True
                ).result
                assert len(result.ids) > 0  # failover kept answers flowing
                if cluster.groups[0].down[0]:
                    break
            assert cluster.groups[0].down[0]
            assert cluster.stats.replica_failovers >= 1
            assert cluster.last_replica_read[0] == 1


class TestEmptyBatch:
    """The empty batch is well-defined on every query() facade."""

    def _empty(self):
        return QueryRequest(vectors=np.empty((0, DIM), dtype=np.float32), k=5)

    def test_single_node(self, built_index):
        response = built_index.query(self._empty())
        assert response.results == ()

    def test_sharded(self, vectors, small_config):
        with ClusterSPFresh.build(
            vectors, config=small_config, placement=HashPlacement(3)
        ) as sharded:
            assert sharded.query(self._empty()).results == ()
            assert sharded.stats.queries == 0

    def test_cluster(self, cluster):
        response = cluster.query(self._empty())
        assert response.results == ()
        assert cluster.stats.queries == 0  # nothing probed, nothing counted


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestProcessPool:
    def test_pooled_answers_match_serial_replay(self, cluster, vectors):
        queries = (vectors[:12] + 0.01).astype(np.float32)
        batches = cluster._per_shard_batches(
            cluster.placement.shards_for_queries(
                queries, cluster.config.cluster.nprobe
            )
        )
        # Fork BEFORE the parent runs anything: workers and the parent
        # then replay identical sub-batches from identical (build) state.
        with cluster.worker_pool(fork=True) as pool:
            jobs = {
                shard: (0, QueryRequest(vectors=queries[rows], k=5))
                for shard, rows in batches.items()
            }
            pooled = pool.run(jobs)
            for shard, (replica_id, sub) in jobs.items():
                serial = cluster.groups[shard].replicas[replica_id].query(sub)
                assert_same_results(pooled[shard], serial.results)

    def test_closed_pool_rejects_jobs(self, cluster, vectors):
        pool = cluster.worker_pool(fork=True)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            cluster.query(QueryRequest.single(vectors[0], k=1), pool=pool)


PQ = dict(
    quant_enabled=True,
    quant_kind="pq",
    quant_subspaces=8,
    quant_codebook_size=16,
)


@pytest.mark.parametrize("fork", EXECUTORS)
class TestPooledQuery:
    """``query(pool=)`` is ``query()`` with the shard calls moved out.

    Each case builds the same cluster twice — a query has maintenance
    side effects, so equal answers need equal starting states — and asks
    one serially, the other through a pool.
    """

    @pytest.fixture
    def twins(self, vectors, cluster_config):
        built = []

        def build(config=cluster_config, hashed=False, **kwargs):
            for _ in range(2):
                built.append(
                    ClusterSPFresh.build(
                        vectors,
                        num_shards=3,
                        config=config,
                        placement=HashPlacement(3) if hashed else None,
                        **kwargs,
                    )
                )
            return built[-2:]

        yield build
        for facade in built:
            facade.close()

    @staticmethod
    def assert_same_bookkeeping(serial, pooled):
        assert pooled.stats == serial.stats
        assert pooled.last_replica_read == serial.last_replica_read
        assert pooled._read_counter == serial._read_counter
        assert [g.down for g in pooled.groups] == [g.down for g in serial.groups]

    @pytest.mark.parametrize("hashed", [False, True], ids=["centroid", "hash"])
    def test_equals_serial_in_every_field(self, twins, vectors, fork, hashed):
        serial, pooled = twins(hashed=hashed)
        request = QueryRequest(vectors=vectors[:12] + 0.01, k=5)
        with pooled.worker_pool(fork=fork) as pool:
            for broadcast in (False, True, False):
                assert_same_results(
                    pooled.query(request, broadcast=broadcast, pool=pool),
                    serial.query(request, broadcast=broadcast),
                )
        self.assert_same_bookkeeping(serial, pooled)
        assert serial.stats.queries == 36

    def test_request_knobs_reach_the_workers(
        self, twins, vectors, cluster_config, fork
    ):
        # The forked shard pool used to ship (vectors, k, nprobe) only:
        # with rerank_k=1 on a PQ index most pooled answers were wrong.
        serial, pooled = twins(cluster_config.with_overrides(**PQ))
        with pooled.worker_pool(fork=fork) as pool:
            # k * rerank_k exact rows per shard (4 by default), none for
            # an unquantized scan.
            for knobs, reranked_per_shard in (
                ({}, 20),
                ({"rerank_k": 1}, 5),
                ({"quantized": False}, 0),
            ):
                request = QueryRequest(vectors=vectors[:20] + 0.01, k=5, **knobs)
                got = pooled.query(request, broadcast=True, pool=pool)
                assert_same_results(got, serial.query(request, broadcast=True))
                assert {r.reranked_entries for r in got} == {3 * reranked_per_shard}

    def test_mid_read_fault_fails_over_like_serial(
        self, twins, vectors, cluster_config, fork
    ):
        plans = []

        def device_factory(shard_id, replica_id, shard_config):
            device = SimulatedSSD(
                shard_config.ssd_blocks,
                SSDProfile(block_size=shard_config.block_size),
            )
            if shard_id == 0 and replica_id == 0:
                plans.append(FaultPlan(seed=3, read_error_rate=1.0).disarm())
                return FaultInjectingSSD(device, plans[-1])
            return device

        serial, pooled = twins(
            cluster_config.with_overrides(cluster_replication_factor=2),
            device_factory=device_factory,
        )
        for plan in plans:
            plan.arm()  # every read on shard 0 / replica 0 now errors
        with pooled.worker_pool(fork=fork) as pool:
            for q in vectors[:12]:
                request = QueryRequest.single(q, k=3)
                assert_same_results(
                    pooled.query(request, broadcast=True, pool=pool),
                    serial.query(request, broadcast=True),
                )
        assert pooled.groups[0].down == [True, False]
        assert pooled.stats.replica_failovers >= 2
        assert pooled.last_replica_read[0] == 1
        self.assert_same_bookkeeping(serial, pooled)

    def test_pool_older_than_a_split_is_refused(
        self, vectors, cluster_config, fork, rng
    ):
        config = cluster_config.with_overrides(cluster_split_threshold=160)
        request = QueryRequest.single(vectors[0], k=3)
        with ClusterSPFresh.build(vectors, num_shards=3, config=config) as cluster:
            with cluster.worker_pool(fork=fork) as pool:
                cluster.query(request, pool=pool)
                for i in range(80):
                    noise = rng.normal(scale=0.3, size=DIM).astype(np.float32)
                    cluster.insert(10_000 + i, vectors[0] + noise)
                assert cluster.maybe_split() >= 1
                with pytest.raises(ValueError, match="predates a shard split"):
                    cluster.query(request, pool=pool)
            with cluster.worker_pool(fork=fork) as pool:
                assert len(cluster.query(request, pool=pool).result.ids) == 3

    def test_fork_refuses_live_background_workers(self, cluster, fork):
        replica = cluster.groups[1].replicas[0]
        replica.start()
        try:
            if fork:
                with pytest.raises(RuntimeError, match="background"):
                    cluster.worker_pool(fork=True)
            else:
                cluster.worker_pool(fork=False).close()
        finally:
            replica.stop()


class TestServingPassthrough:
    def test_frontend_drives_cluster_engine(self, cluster, vectors, rng):
        pool = (vectors[:32] + rng.normal(scale=0.05, size=(32, DIM))).astype(
            np.float32
        )
        trace = make_arrival_trace(pool, 80, 8000.0, seed=2, name="cluster")
        fe = ServingFrontend(cluster, k=5, queue_capacity=64, keep_results=True)
        report = fe.run(trace)
        answered = report.answered
        assert len(answered) + len(report.shed) == len(trace)
        assert len(answered) > 0
        for outcome in answered:
            assert outcome.result is not None
            assert 0 < len(outcome.result.ids) <= 5
