"""Exact brute-force index: the differential-testing oracle.

``FlatIndex`` keeps every live vector in a plain ``id → vector`` map and
answers top-k by scanning all of them with the same ``sq_l2_batch`` kernel
the engine uses. It has no postings, no tiers, no tombstones and no
latency model — which is precisely why it is trustworthy: any divergence
between it and :class:`~repro.core.index.SPFreshIndex` run over the same
insert/delete/search interleaving is an engine bug, not an oracle bug.
``tests/test_fresh_tier.py`` runs it in lockstep against the fresh-tier
write path, including mid-flush states.
"""

from __future__ import annotations

import numpy as np

from repro.api import QueryRequest, SearchResponse, respond
from repro.spann.searcher import SearchResult
from repro.util.distance import as_vector, sq_l2_batch
from repro.util.errors import IndexError_


class FlatIndex:
    """Minimal exact k-NN index over an explicit vector map."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self._vectors: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def insert(self, vector_id: int, vector: np.ndarray) -> None:
        """Add a vector; a negative or live id raises, as in every engine."""
        vector_id = int(vector_id)
        if vector_id < 0:
            raise IndexError_("vector ids must be non-negative")
        if vector_id in self._vectors:
            raise IndexError_(f"vector {vector_id} is already live")
        self._vectors[vector_id] = as_vector(vector, self.dim).copy()

    def delete(self, vector_id: int) -> bool:
        return self._vectors.pop(int(vector_id), None) is not None

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, vector_id: int) -> bool:
        return int(vector_id) in self._vectors

    def ids(self) -> np.ndarray:
        return np.array(sorted(self._vectors), dtype=np.int64)

    def vector(self, vector_id: int) -> np.ndarray:
        """The stored vector of a live id (a copy)."""
        return self._vectors[int(vector_id)].copy()

    # ------------------------------------------------------------------
    def query(self, request: QueryRequest) -> SearchResponse:
        """Exact top-k of every query row, distance- then id-ordered.

        Ties on distance break toward the smaller id, which makes the
        oracle's output deterministic regardless of insertion order.
        Knobs other than ``k`` mean nothing here; latency is zero.
        """
        return respond(request, lambda r: [self._search(q, r.k) for q in r.vectors])

    def _search(self, query: np.ndarray, k: int) -> SearchResult:
        query = as_vector(query, self.dim)
        ids = self.ids()
        if not len(ids):
            return SearchResult(
                ids=ids, distances=np.empty(0, dtype=np.float32), latency_us=0.0
            )
        matrix = np.stack([self._vectors[int(v)] for v in ids])
        dists = sq_l2_batch(query, matrix)
        order = np.argsort(dists, kind="stable")[:k]
        return SearchResult(ids=ids[order], distances=dists[order], latency_us=0.0)
