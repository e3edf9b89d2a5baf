"""Product quantization (Jégou et al.), generalized for the main engine.

Lifted from the DiskANN baseline (which imports it from here) and
extended with the :class:`VectorQuantizer` contract: batched distance
tables, the fused :func:`adc_scan` kernel, and snapshot-ready
``state_dict``. The classic layout is unchanged — the vector is cut
into ``num_subspaces`` chunks, each chunk quantized against a ≤256-entry
codebook learned with k-means, one uint8 code per chunk.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.lloyd import kmeans
from repro.quantize.base import VectorQuantizer
from repro.util.distance import pairwise_sq_l2


class ProductQuantizer(VectorQuantizer):
    """Classic PQ with asymmetric distance computation (ADC)."""

    kind = "pq"

    def __init__(self, dim: int, num_subspaces: int = 4, codebook_size: int = 256) -> None:
        if dim % num_subspaces != 0:
            raise ValueError(
                f"dim {dim} must be divisible by num_subspaces {num_subspaces}"
            )
        if not 2 <= codebook_size <= 256:
            raise ValueError("codebook_size must fit in one byte (2..256)")
        self.dim = dim
        self.num_subspaces = num_subspaces
        self.sub_dim = dim // num_subspaces
        self.codebook_size = codebook_size
        self.code_bytes = num_subspaces
        self.codebooks: np.ndarray | None = None  # (m, codebook_size, sub_dim)

    @property
    def is_fitted(self) -> bool:
        return self.codebooks is not None

    def fit(
        self,
        vectors: np.ndarray,
        rng: np.random.Generator | None = None,
        max_iters: int = 8,
        sample_size: int = 4096,
    ) -> "ProductQuantizer":
        """Learn one k-means codebook per subspace from a training sample."""
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        rng = rng or np.random.default_rng(0)
        if len(vectors) > sample_size:
            sample = vectors[rng.choice(len(vectors), sample_size, replace=False)]
        else:
            sample = vectors
        books = np.zeros(
            (self.num_subspaces, self.codebook_size, self.sub_dim), dtype=np.float32
        )
        for m in range(self.num_subspaces):
            chunk = sample[:, m * self.sub_dim : (m + 1) * self.sub_dim]
            k = min(self.codebook_size, len(chunk))
            centroids, _ = kmeans(chunk, k, rng, max_iters=max_iters)
            books[m, : len(centroids)] = centroids
            if len(centroids) < self.codebook_size:
                # Pad unused codewords far away so they are never selected.
                books[m, len(centroids) :] = centroids[0] + 1e6
        self.codebooks = books
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize vectors to (n, num_subspaces) uint8 codes."""
        if not self.is_fitted:
            raise RuntimeError("ProductQuantizer.fit must be called first")
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        codes = np.zeros((len(vectors), self.num_subspaces), dtype=np.uint8)
        for m in range(self.num_subspaces):
            chunk = vectors[:, m * self.sub_dim : (m + 1) * self.sub_dim]
            dists = pairwise_sq_l2(chunk, self.codebooks[m])
            codes[:, m] = dists.argmin(axis=1).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        if not self.is_fitted:
            raise RuntimeError("ProductQuantizer.fit must be called first")
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim == 1:
            codes = codes.reshape(1, -1)
        out = np.zeros((len(codes), self.dim), dtype=np.float32)
        for m in range(self.num_subspaces):
            out[:, m * self.sub_dim : (m + 1) * self.sub_dim] = self.codebooks[m][
                codes[:, m]
            ]
        return out

    def distance_tables(self, queries: np.ndarray) -> np.ndarray:
        """Per-query ADC tables: ``(nq, num_subspaces, codebook_size)``."""
        if not self.is_fitted:
            raise RuntimeError("ProductQuantizer.fit must be called first")
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        # pairwise_sq_l2 over every subspace at once: one stacked matmul in
        # place of a tiny GEMM per subspace, term for term the same
        # arithmetic (tests/test_quantize.py holds it bit-identical to the
        # loop). The codebooks stay a transposed *view*: a contiguous copy
        # changes the last bit of a single-query product.
        chunks = queries.reshape(-1, self.num_subspaces, self.sub_dim).transpose(1, 0, 2)
        books = self.codebooks
        a2 = np.einsum("mqj,mqj->mq", chunks, chunks)
        b2 = np.einsum("mkj,mkj->mk", books, books)
        out = a2[:, :, None] + b2[:, None, :]
        out -= 2.0 * np.matmul(chunks, books.transpose(0, 2, 1))
        np.maximum(out, 0.0, out=out)
        return np.ascontiguousarray(out.transpose(1, 0, 2), dtype=np.float32)

    @staticmethod
    def adc_distances(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate squared distances via table lookups (vectorized)."""
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim == 1:
            codes = codes.reshape(1, -1)
        cols = np.arange(codes.shape[1])
        return table[cols, codes].sum(axis=1)

    def state_dict(self) -> dict:
        state = {
            "kind": self.kind,
            "dim": self.dim,
            "num_subspaces": self.num_subspaces,
            "codebook_size": self.codebook_size,
        }
        if self.codebooks is not None:
            state["codebooks"] = np.array(self.codebooks, copy=True)
        return state

    def load_state_dict(self, state: dict) -> None:
        if (
            int(state["dim"]) != self.dim
            or int(state["num_subspaces"]) != self.num_subspaces
            or int(state["codebook_size"]) != self.codebook_size
        ):
            raise ValueError("PQ state geometry does not match this quantizer")
        books = state.get("codebooks")
        if books is not None:
            books = np.ascontiguousarray(books, dtype=np.float32)
            expected = (self.num_subspaces, self.codebook_size, self.sub_dim)
            if books.shape != expected:
                raise ValueError(
                    f"PQ codebooks shape {books.shape} != expected {expected}"
                )
        self.codebooks = books

    def state_bytes(self) -> int:
        return self.num_subspaces * self.codebook_size * self.sub_dim * 4

    def memory_bytes(self, num_vectors: int) -> int:
        """DRAM model: codes for every vector plus the codebooks."""
        return num_vectors * self.num_subspaces + self.state_bytes()
