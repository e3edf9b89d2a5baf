"""Maximum inner-product search (MIPS) via reduction to L2.

The SPACEV-style deep NLP encoders the paper mentions rank by inner
product, while LIRE's NPA conditions (and the whole SPANN substrate)
assume a Euclidean space. The standard bridge is the order-preserving
MIPS→L2 reduction (Bachrach et al. / Shrivastava & Li):

* data vector ``x`` (with ``|x| <= M``) becomes
  ``[x, sqrt(M^2 - |x|^2)]``;
* query ``q`` becomes ``[q, 0]``.

Then ``|q' - x'|^2 = |q|^2 + M^2 - 2 <q, x>`` — monotone decreasing in
the inner product — so L2 nearest neighbors of the augmented query are
exactly the maximum-inner-product vectors. :class:`MipsTransform` owns
the bookkeeping (the norm bound M, augmentation, query mapping), and
:class:`MipsSPFreshIndex` wraps a plain SPFresh index so callers insert
and search raw inner-product vectors.
"""

from __future__ import annotations

import numpy as np

from repro.api import QueryRequest, SearchResponse, respond
from repro.util.distance import as_matrix, as_vector


class MipsTransform:
    """Order-preserving augmentation from inner-product to L2 space."""

    def __init__(self, dim: int, norm_bound: float) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if norm_bound <= 0:
            raise ValueError("norm_bound must be positive")
        self.dim = dim
        self.norm_bound = float(norm_bound)

    @classmethod
    def fit(cls, vectors: np.ndarray, headroom: float = 1.25) -> "MipsTransform":
        """Choose the norm bound from data, with headroom for future inserts."""
        vectors = as_matrix(vectors)
        max_norm = float(np.linalg.norm(vectors, axis=1).max()) if len(vectors) else 1.0
        return cls(vectors.shape[1], max(max_norm * headroom, 1e-6))

    @property
    def augmented_dim(self) -> int:
        return self.dim + 1

    def transform_data(self, vectors: np.ndarray) -> np.ndarray:
        """Augment data vectors with the norm-completion coordinate."""
        vectors = as_matrix(vectors, self.dim)
        norms_sq = np.einsum("ij,ij->i", vectors, vectors)
        slack = self.norm_bound**2 - norms_sq
        if (slack < -1e-4).any():
            raise ValueError(
                "vector norm exceeds the transform's bound; refit with a "
                "larger headroom"
            )
        extra = np.sqrt(np.maximum(slack, 0.0)).astype(np.float32)
        return np.hstack([vectors, extra[:, None]])

    def transform_query(self, query: np.ndarray) -> np.ndarray:
        """Augment a query with a zero coordinate."""
        query = as_vector(query, self.dim)
        return np.concatenate([query, np.zeros(1, dtype=np.float32)])

    def inner_products_from_sq_l2(
        self, query: np.ndarray, sq_l2_distances: np.ndarray
    ) -> np.ndarray:
        """Recover exact inner products from augmented L2 distances."""
        query = as_vector(query, self.dim)
        q_norm_sq = float(np.dot(query, query))
        return (q_norm_sq + self.norm_bound**2 - np.asarray(sq_l2_distances)) / 2.0


class MipsSPFreshIndex:
    """Inner-product SPFresh: a transform in front of a plain L2 index.

    Build with raw inner-product vectors; search returns ids ranked by
    descending inner product, with the scores in ``result.distances``
    replaced by the true inner products.
    """

    def __init__(self, index, transform: MipsTransform) -> None:
        self._index = index
        self.transform = transform

    @classmethod
    def build(cls, vectors: np.ndarray, ids=None, config=None, headroom: float = 1.25):
        """Fit the transform on ``vectors`` and build the augmented index."""
        from repro.core.config import SPFreshConfig
        from repro.core.index import SPFreshIndex

        vectors = as_matrix(vectors)
        transform = MipsTransform.fit(vectors, headroom=headroom)
        config = config or SPFreshConfig(dim=transform.augmented_dim)
        if config.dim != transform.augmented_dim:
            config = config.with_overrides(dim=transform.augmented_dim)
        index = SPFreshIndex.build(
            transform.transform_data(vectors), ids=ids, config=config
        )
        return cls(index, transform)

    def insert(self, vector_id: int, vector: np.ndarray) -> float:
        """Insert a raw inner-product vector (augmented internally)."""
        augmented = self.transform.transform_data(vector.reshape(1, -1))[0]
        return self._index.insert(vector_id, augmented)

    def delete(self, vector_id: int) -> float:
        return self._index.delete(vector_id)

    def query(self, request: QueryRequest) -> SearchResponse:
        """Top-k by inner product; scores returned in ``distances``.

        Each query vector is augmented before hitting the inner L2 index
        and each result's squared distances are mapped back to exact
        inner products in place (``SearchResult`` is mutable even though
        the response wrapper is frozen).
        """

        def answer(request: QueryRequest) -> tuple:
            raw = as_matrix(request.vectors, self.transform.dim)
            augmented = np.vstack(
                [self.transform.transform_query(q) for q in raw]
            )
            results = self._index.query(request.with_vectors(augmented)).results
            for query, result in zip(raw, results):
                result.distances = self.transform.inner_products_from_sq_l2(
                    query, result.distances
                ).astype(np.float32)
            return results

        return respond(request, answer)

    def drain(self) -> int:
        return self._index.drain()

    def __getattr__(self, name):
        return getattr(self._index, name)
