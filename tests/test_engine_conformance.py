"""One conformance suite for every engine the paper's figures compare.

Every engine answers ``query(QueryRequest) -> SearchResponse``; the ones
that take updates also answer ``insert`` / ``delete``. The same cases run
against each of them: SPFresh, SPANN+, the sharded cluster, FreshDiskANN,
the Vearch-like in-memory index and the ``FlatIndex`` oracle, plus the
bare ``SpannSearcher`` for the read-only cases.
"""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.baselines import (
    DiskANNConfig,
    FlatIndex,
    FreshDiskANNIndex,
    VearchLikeIndex,
    build_spann_plus,
)
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.datasets import exact_knn
from repro.distributed import ClusterSPFresh
from repro.util.errors import IndexError_

DIM = 8
N = 400
K = 10
ALL = 10**6  # probe every posting: SPANN answers become exact


def _vectors() -> np.ndarray:
    rng = np.random.default_rng(31)
    centers = rng.normal(scale=5.0, size=(6, DIM))
    rows = centers[rng.integers(0, 6, size=N)] + rng.normal(size=(N, DIM))
    return rows.astype(np.float32)


def _config() -> SPFreshConfig:
    return SPFreshConfig(
        dim=DIM,
        max_posting_size=32,
        min_posting_size=3,
        build_target_posting_size=16,
        ssd_blocks=1 << 13,
        seed=7,
    )


def _flat(vectors: np.ndarray) -> FlatIndex:
    index = FlatIndex(DIM)
    for vid, vector in enumerate(vectors):
        index.insert(vid, vector)
    return index


BUILDERS = {
    "spfresh": lambda v: SPFreshIndex.build(v, config=_config()),
    "spann_plus": lambda v: build_spann_plus(v, config=_config()),
    "cluster": lambda v: ClusterSPFresh.build(v, num_shards=3, config=_config()),
    "diskann": lambda v: FreshDiskANNIndex.build(
        v, config=DiskANNConfig(dim=DIM, ssd_blocks=1 << 11, merge_threshold=10**6)
    ),
    "vearch": lambda v: VearchLikeIndex.build(v, num_partitions=16, seed=1),
    "flat": _flat,
}
READ_ONLY = {"searcher": lambda v: SPFreshIndex.build(v, config=_config()).searcher}
UPDATABLE = sorted(BUILDERS)


@pytest.fixture(scope="module")
def vectors() -> np.ndarray:
    return _vectors()


@pytest.fixture(params=UPDATABLE)
def engine(request, vectors):
    """A fresh engine per test: the update cases mutate it."""
    return BUILDERS[request.param](vectors)


@pytest.fixture(scope="module", params=UPDATABLE + sorted(READ_ONLY))
def built(request, vectors):
    """One engine per module for the read-only cases."""
    return {**BUILDERS, **READ_ONLY}[request.param](vectors)


def _ask(engine, vector, k=K):
    return engine.query(QueryRequest.single(vector, k=k, nprobe=ALL)).result


def _queries(vectors: np.ndarray) -> np.ndarray:
    return vectors[::40] + np.float32(0.05)


class TestReads:
    def test_results_are_k_ordered_and_distinct(self, built, vectors):
        for query in _queries(vectors):
            for k in (1, 5, K):
                result = _ask(built, query, k)
                assert 0 < len(result.ids) <= k
                assert len(set(map(int, result.ids))) == len(result.ids)
                assert list(result.distances) == sorted(result.distances)

    def test_batch_equals_its_singles(self, built, vectors):
        queries = _queries(vectors)
        batch = built.query(QueryRequest(vectors=queries, k=K, nprobe=ALL))
        assert len(batch) == len(queries)
        for query, result in zip(queries, batch):
            single = _ask(built, query)
            np.testing.assert_array_equal(result.ids, single.ids)
            np.testing.assert_array_equal(result.distances, single.distances)

    def test_empty_batch_gives_empty_response(self, built):
        request = QueryRequest(vectors=np.empty((0, DIM), np.float32), k=K)
        response = built.query(request)
        assert len(response) == 0 and response.request is request

    def test_rejects_anything_but_a_request(self, built, vectors):
        with pytest.raises(TypeError):
            built.query(vectors[0])


class TestUpdates:
    def test_deleted_id_never_returns(self, engine, vectors):
        victims = list(range(0, N, 17))
        for vid in victims:
            engine.delete(vid)
        for vid in victims:
            ids = set(map(int, _ask(engine, vectors[vid]).ids))
            assert ids.isdisjoint(victims)

    def test_reinsert_is_found_at_its_new_vector_only(self, engine, vectors):
        vid = 5
        old = vectors[vid]
        new = old + np.float32(50.0)
        engine.delete(vid)
        engine.insert(vid, new)
        at_new = _ask(engine, new, 1)
        assert int(at_new.ids[0]) == vid and at_new.distances[0] == 0.0
        at_old = _ask(engine, old)
        assert vid not in set(map(int, at_old.ids))

    def test_inserting_a_live_id_raises(self, engine, vectors):
        with pytest.raises(IndexError_):
            engine.insert(3, vectors[3])


class TestFlatOracle:
    def test_equals_brute_force(self, vectors):
        oracle = _flat(vectors)
        for vid in range(0, N, 7):
            oracle.delete(vid)
        live = np.array([v for v in range(N) if v % 7], dtype=np.int64)
        queries = _queries(vectors)
        truth = exact_knn(vectors[live], live, queries, K)
        for query, want in zip(queries, truth):
            result = _ask(oracle, query)
            np.testing.assert_array_equal(result.ids, want)
            assert result.latency_us == 0.0

    def test_rejects_negative_ids(self):
        with pytest.raises(IndexError_):
            FlatIndex(DIM).insert(-1, np.zeros(DIM, np.float32))
