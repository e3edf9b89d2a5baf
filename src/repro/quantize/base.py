"""Shared quantizer interface + the fused ADC lookup-table kernel.

Both quantizers (:class:`~repro.quantize.pq.ProductQuantizer`,
:class:`~repro.quantize.sq.ScalarQuantizer`) expose the same contract so
the codec, searcher, and snapshot layers never branch on the kind:

* ``fit(vectors, rng)`` — learn the codebooks / ranges at build time;
* ``encode(vectors) -> (n, code_bytes) uint8`` — compact posting codes;
* ``decode(codes) -> (n, dim) float32`` — approximate reconstruction;
* ``distance_tables(queries) -> (nq, m, table_size) float32`` — per-query
  asymmetric-distance lookup tables;
* ``scan(queries, codes) -> (nq, n) float32`` — approximate squared-L2,
  implemented as one fused gather over the flattened tables;
* ``state_dict()`` / ``load_state_dict()`` — snapshot persistence.

Encoding is deterministic (a pure function of the fitted state), which is
the property the LIRE lifecycle leans on: splits, merges, flushes, and
GC rewrites may drop or recompute the code column freely and always land
on byte-identical codes — the invariant auditor's coherence check
(:mod:`repro.core.invariants`) verifies exactly that.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.util.distance import pair_chunks


def _table_offsets(codes: np.ndarray, k: int) -> np.ndarray:
    """Flat ``(m * K)``-table offset of every code: ``code + subspace * K``.

    32-bit and added in place: the result is four times the code column,
    allocated once.
    """
    offsets = codes.astype(np.int32)
    offsets += np.arange(codes.shape[1], dtype=np.int32) * k
    return offsets


def adc_scan(
    tables: np.ndarray, codes: np.ndarray, query_rows=None
) -> np.ndarray:
    """Fused ADC: ``(nq, m, K)`` tables x ``(n, m)`` codes → ``(nq, n)``.

    The per-query tables are flattened to ``(nq, m*K)`` and the codes
    become flat offsets ``code + subspace*K``, so per query one ``take``
    from its (cache-resident) table produces the ``(n, m)`` contribution
    matrix and a single float32 reduction over the subspace axis yields
    every approximate distance — no per-posting Python loop.

    ``query_rows`` selects a subset of table rows without materializing
    ``tables[query_rows]`` first. The result then has ``len(query_rows)``
    rows, ordered like ``query_rows``.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim == 1:
        codes = codes.reshape(1, -1)
    nq, m, k = tables.shape
    if codes.shape[1] != m:
        raise ValueError(
            f"codes have {codes.shape[1]} subspaces, tables have {m}"
        )
    rows = range(nq) if query_rows is None else np.asarray(query_rows, dtype=np.intp)
    flat = np.ascontiguousarray(tables).reshape(nq, m * k)
    offsets = _table_offsets(codes, k)
    out = np.empty((len(rows), len(codes)), dtype=np.float32)
    for row, query in zip(out, rows):
        flat[query].take(offsets).sum(axis=1, dtype=np.float32, out=row)
    return out


def adc_scan_pairs(
    tables: np.ndarray, codes: np.ndarray, code_of: np.ndarray, bounds
) -> np.ndarray:
    """Fused ADC of (query, code) pairs: the batched quantized scan's kernel.

    Each query meets only the codes of the postings it probes: pair ``p``
    of query ``q`` (``bounds[q] <= p < bounds[q + 1]``) is table ``q``
    against ``codes[code_of[p]]``. Same flat-offset gather and float32
    subspace sum as :func:`adc_scan`, so it is bit-identical to
    ``adc_scan(tables, codes)[q, code_of[p]]``. Chunked along the pair
    axis: the gathered ``(pairs, m)`` cube is the temporary that would
    otherwise grow with batch size x posting length, and a chunk looks
    up one query's ``m * K`` table, which stays cache-resident.
    """
    nq, m, k = tables.shape
    flat = np.ascontiguousarray(tables).reshape(nq, m * k)
    offsets = _table_offsets(codes, k)  # once per call, not per pair
    out = np.empty(len(code_of), dtype=np.float32)
    for query, start, stop in pair_chunks(bounds, m):
        cube = flat[query].take(offsets[code_of[start:stop]])
        cube.sum(axis=1, dtype=np.float32, out=out[start:stop])
    return out


def adc_scan_brute(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Reference ADC: per-query table lookups, one row at a time.

    Semantically identical to :func:`adc_scan`; kept as the oracle the
    hypothesis parity suite pins the fused kernel against.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim == 1:
        codes = codes.reshape(1, -1)
    nq = len(tables)
    cols = np.arange(codes.shape[1])
    out = np.zeros((nq, len(codes)), dtype=np.float32)
    for q in range(nq):
        out[q] = tables[q][cols, codes].sum(axis=1, dtype=np.float32)
    return out


class VectorQuantizer(abc.ABC):
    """Abstract base for posting-code quantizers."""

    kind: str = "abstract"
    dim: int
    code_bytes: int

    @property
    @abc.abstractmethod
    def is_fitted(self) -> bool: ...

    @abc.abstractmethod
    def fit(
        self, vectors: np.ndarray, rng: np.random.Generator | None = None
    ) -> "VectorQuantizer": ...

    @abc.abstractmethod
    def encode(self, vectors: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def decode(self, codes: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def distance_tables(self, queries: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def state_dict(self) -> dict: ...

    @abc.abstractmethod
    def load_state_dict(self, state: dict) -> None: ...

    def scan(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate squared L2 from each query to each coded vector."""
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        return adc_scan(self.distance_tables(queries), codes)

    def distance_table(self, query: np.ndarray) -> np.ndarray:
        """Single-query ``(m, table_size)`` table (legacy DiskANN shape)."""
        query = np.ascontiguousarray(query, dtype=np.float32).reshape(1, -1)
        return self.distance_tables(query)[0]

    def memory_bytes(self, num_vectors: int) -> int:
        """DRAM model: codes for every vector plus the fitted state."""
        return num_vectors * self.code_bytes + self.state_bytes()

    def state_bytes(self) -> int:
        """Bytes of fitted state (codebooks / ranges)."""
        return 0


def make_quantizer(
    kind: str,
    dim: int,
    *,
    subspaces: int = 8,
    codebook_size: int = 256,
) -> VectorQuantizer:
    """Factory keyed by ``SPFreshConfig.quantize.kind``."""
    from repro.quantize.pq import ProductQuantizer
    from repro.quantize.sq import ScalarQuantizer

    if kind == "pq":
        return ProductQuantizer(
            dim, num_subspaces=subspaces, codebook_size=codebook_size
        )
    if kind == "sq8":
        return ScalarQuantizer(dim)
    raise ValueError(f"unknown quantizer kind {kind!r} (choose 'pq' or 'sq8')")


def quantizer_from_state(state: dict) -> VectorQuantizer:
    """Rebuild a fitted quantizer from its ``state_dict`` (snapshot restore)."""
    from repro.quantize.pq import ProductQuantizer
    from repro.quantize.sq import ScalarQuantizer

    kind = state.get("kind")
    if kind == "pq":
        quantizer: VectorQuantizer = ProductQuantizer(
            int(state["dim"]),
            num_subspaces=int(state["num_subspaces"]),
            codebook_size=int(state["codebook_size"]),
        )
    elif kind == "sq8":
        quantizer = ScalarQuantizer(int(state["dim"]))
    else:
        raise ValueError(f"unknown quantizer state kind {kind!r}")
    quantizer.load_state_dict(state)
    return quantizer
