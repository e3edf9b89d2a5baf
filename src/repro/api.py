"""Typed query surface shared by every search engine.

One request object — :class:`QueryRequest` — travels unchanged through
every engine (``SPFreshIndex`` and SPANN+, ``ClusterSPFresh`` and,
pickled, its pool workers, the MIPS wrapper, ``SpannSearcher``, the
FreshDiskANN and Vearch baselines, the ``FlatIndex`` oracle), tracing,
the update-simulation driver, the serving frontend and its replay, so
adding a knob (rerank width, quantized toggle, tenant tag) is one field
here instead of a signature change in six places. Engines answer with a
:class:`SearchResponse` that keeps the per-query
:class:`~repro.spann.searcher.SearchResult` objects and the request that
produced them.

``engine.query(QueryRequest)`` is the only search entry point of every
engine; there is no positional ``search(vector, k, nprobe)`` form (see
``docs/api.md``). :func:`respond` is the part every ``query`` shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["QueryRequest", "SearchResponse", "respond"]


@dataclass(frozen=True)
class QueryRequest:
    """One search request: query vector(s) plus every tuning knob.

    ``vectors`` is normalized to a 2-D ``float32`` array at construction
    — a single 1-D vector becomes one row, so ``is_single`` tells the
    facade whether the caller wants one result or a batch. ``None``
    knobs mean "use the index's configured default": ``nprobe`` falls
    back to ``config.nprobe``, ``rerank_k``/``quantized`` to the
    searcher's quantization defaults (quantized scan iff the index was
    built with a quantized codec).
    """

    vectors: np.ndarray
    k: int = 10
    nprobe: int | None = None
    rerank_k: int | None = None
    quantized: bool | None = None
    tenant: int | None = None

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.float32)
        if vectors.ndim == 1:
            if len(vectors) == 0:
                raise ValueError(
                    "a 1-D QueryRequest vector cannot be empty; pass a "
                    "(0, dim) matrix for an explicitly empty batch"
                )
            vectors = vectors.reshape(1, -1)
        if vectors.ndim != 2:
            raise ValueError(
                f"vectors must be 1-D or 2-D, got shape {vectors.shape}"
            )
        # An explicitly 2-D empty batch is well-defined: every engine's
        # query() answers it with an empty SearchResponse (no shards or
        # postings probed). Only the single-vector form must be non-empty.
        object.__setattr__(self, "vectors", vectors)
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.nprobe is not None and self.nprobe < 1:
            raise ValueError(f"nprobe must be at least 1, got {self.nprobe}")
        if self.rerank_k is not None and self.rerank_k < 1:
            raise ValueError(
                f"rerank_k must be at least 1, got {self.rerank_k}"
            )

    @classmethod
    def single(cls, vector: np.ndarray, k: int = 10, **knobs) -> "QueryRequest":
        """Request for one query vector (response exposes ``.ids`` etc.)."""
        vector = np.asarray(vector, dtype=np.float32)
        if vector.ndim != 1:
            raise ValueError(
                f"QueryRequest.single wants a 1-D vector, got {vector.shape}"
            )
        return cls(vectors=vector, k=k, **knobs)

    @property
    def is_single(self) -> bool:
        return len(self.vectors) == 1

    def with_vectors(self, vectors: np.ndarray) -> "QueryRequest":
        """Same knobs, different payload (batcher slicing, shard fanout)."""
        return replace(self, vectors=vectors)


@dataclass(frozen=True)
class SearchResponse:
    """Per-query results plus the request that produced them.

    Iterates/indexes like a sequence of
    :class:`~repro.spann.searcher.SearchResult`. For single-vector
    requests the result's fields are mirrored as properties
    (``response.ids``, ``response.latency_us``, ...) so the common case
    reads like a bare result; accessing them on a batch response raises.
    """

    results: tuple = field(default_factory=tuple)
    request: QueryRequest | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, item):
        return self.results[item]

    @property
    def result(self):
        """The sole SearchResult; raises on batch responses."""
        if len(self.results) != 1:
            raise ValueError(
                f"response holds {len(self.results)} results; index it or "
                f"iterate instead of using single-result accessors"
            )
        return self.results[0]

    # Single-result conveniences.
    @property
    def ids(self) -> np.ndarray:
        return self.result.ids

    @property
    def distances(self) -> np.ndarray:
        return self.result.distances

    @property
    def latency_us(self) -> float:
        return self.result.latency_us

    @property
    def io_latency_us(self) -> float:
        return self.result.io_latency_us

    @property
    def postings_probed(self) -> int:
        return self.result.postings_probed

    @property
    def entries_scanned(self) -> int:
        return self.result.entries_scanned

    @property
    def truncated(self) -> bool:
        return self.result.truncated

    @property
    def fresh_entries_scanned(self) -> int:
        return self.result.fresh_entries_scanned

    @property
    def reranked_entries(self) -> int:
        return self.result.reranked_entries


def respond(request: QueryRequest, answer) -> SearchResponse:
    """The shell of every engine's ``query``.

    Rejects anything but a :class:`QueryRequest`, answers an empty batch
    with an empty response without calling ``answer`` (nothing probed),
    and otherwise wraps ``answer(request)``: one result per query row,
    in row order.
    """
    if not isinstance(request, QueryRequest):
        raise TypeError(
            f"query() wants a repro.api.QueryRequest, got "
            f"{type(request).__name__}"
        )
    if len(request.vectors) == 0:
        return SearchResponse(results=(), request=request)
    return SearchResponse(results=tuple(answer(request)), request=request)
