"""Tests for the typed query surface (repro.api)."""

import numpy as np
import pytest

from repro.api import QueryRequest, SearchResponse


class TestQueryRequest:
    def test_single_vector_normalized_to_row(self):
        req = QueryRequest(vectors=np.zeros(8))
        assert req.vectors.shape == (1, 8)
        assert req.vectors.dtype == np.float32
        assert req.is_single

    def test_batch_stays_batch(self):
        req = QueryRequest(vectors=np.zeros((5, 8)))
        assert req.vectors.shape == (5, 8)
        assert not req.is_single

    def test_explicit_empty_batch_is_well_defined(self):
        # A 2-D (0, dim) batch is a legal "no queries" request ...
        req = QueryRequest(vectors=np.zeros((0, 8)))
        assert req.vectors.shape == (0, 8)
        assert not req.is_single

    def test_rejects_empty_1d_and_3d(self):
        # ... but an empty 1-D vector is ambiguous, and 3-D is nonsense.
        with pytest.raises(ValueError):
            QueryRequest(vectors=np.zeros(0))
        with pytest.raises(ValueError):
            QueryRequest(vectors=np.zeros((2, 3, 4)))

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            QueryRequest(vectors=np.zeros(4), k=0)
        with pytest.raises(ValueError):
            QueryRequest(vectors=np.zeros(4), nprobe=0)
        with pytest.raises(ValueError):
            QueryRequest(vectors=np.zeros(4), rerank_k=0)

    def test_single_constructor_rejects_matrix(self):
        with pytest.raises(ValueError):
            QueryRequest.single(np.zeros((2, 4)))

    def test_single_passes_knobs(self):
        req = QueryRequest.single(np.zeros(4), k=3, nprobe=2, rerank_k=5)
        assert (req.k, req.nprobe, req.rerank_k) == (3, 2, 5)

    def test_with_vectors_keeps_knobs(self):
        req = QueryRequest(vectors=np.zeros((4, 8)), k=7, nprobe=3, tenant=2)
        sliced = req.with_vectors(req.vectors[:2])
        assert sliced.vectors.shape == (2, 8)
        assert (sliced.k, sliced.nprobe, sliced.tenant) == (7, 3, 2)

    def test_frozen(self):
        req = QueryRequest(vectors=np.zeros(4))
        with pytest.raises(AttributeError):
            req.k = 5


class _FakeResult:
    def __init__(self, ids):
        self.ids = np.asarray(ids)
        self.distances = np.zeros(len(ids), dtype=np.float32)
        self.latency_us = 1.0


class TestSearchResponse:
    def test_sequence_protocol(self):
        resp = SearchResponse(results=[_FakeResult([1]), _FakeResult([2])])
        assert len(resp) == 2
        assert [r.ids[0] for r in resp] == [1, 2]
        assert resp[1].ids[0] == 2

    def test_single_accessors(self):
        resp = SearchResponse(results=[_FakeResult([4, 5])])
        assert list(resp.ids) == [4, 5]
        assert resp.latency_us == 1.0

    def test_single_accessors_raise_on_batch(self):
        resp = SearchResponse(results=[_FakeResult([1]), _FakeResult([2])])
        with pytest.raises(ValueError):
            _ = resp.ids
        with pytest.raises(ValueError):
            _ = resp.result

