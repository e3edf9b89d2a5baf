"""Distance kernels used across the index, clustering, and baselines.

All internal proximity math uses *squared* Euclidean distance: it preserves
argmin/ordering while avoiding the sqrt, exactly as production ANNS engines
do. Vectors are always ``float32`` numpy arrays; callers are responsible for
casting once at the boundary (``as_matrix`` / ``as_vector`` help with that).
"""

from __future__ import annotations

import enum

import numpy as np


class DistanceMetric(enum.Enum):
    """Similarity metric for vector comparison.

    Only squared L2 is exercised by the SPFresh reproduction (the paper's
    NPA conditions assume a Euclidean space), but inner-product is provided
    for the SPACEV-style workloads that use dot-product ranking.
    """

    SQ_L2 = "sq_l2"
    INNER_PRODUCT = "ip"


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Cast ``x`` to a contiguous float32 1-D vector, validating ``dim``."""
    v = np.ascontiguousarray(x, dtype=np.float32)
    if v.ndim != 1:
        raise ValueError(f"expected 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dim={dim}, got {v.shape[0]}")
    return v


def as_matrix(x, dim: int | None = None) -> np.ndarray:
    """Cast ``x`` to a contiguous float32 2-D matrix, validating ``dim``."""
    m = np.ascontiguousarray(x, dtype=np.float32)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {m.shape}")
    if dim is not None and m.shape[1] != dim:
        raise ValueError(f"expected dim={dim}, got {m.shape[1]}")
    return m


def sq_l2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two vectors.

    Delegates to :func:`sq_l2_batch` so the scalar and batched kernels are
    bit-identical by construction — the contract the vectorized search
    paths (and their parity property tests) rely on.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    return float(sq_l2_batch(a, b.reshape(1, -1))[0])


def sq_l2_batch(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared L2 from one query vector to each row of ``points``.

    Returns a float32 array of shape ``(len(points),)``. Empty ``points``
    yields an empty array rather than raising, so callers can treat empty
    postings uniformly.
    """
    if len(points) == 0:
        return np.empty(0, dtype=np.float32)
    diff = points - query
    return np.einsum("ij,ij->i", diff, diff).astype(np.float32, copy=False)


def pairwise_sq_l2_exact(
    queries: np.ndarray, points: np.ndarray, *, chunk_elems: int = 1 << 19
) -> np.ndarray:
    """All-pairs squared L2 whose rows are bit-identical to ``sq_l2_batch``.

    The expanded-form GEMM in :func:`pairwise_sq_l2` is faster on big
    matrices but rounds differently from the difference form, so it cannot
    be used where batched results must match the single-query path bit for
    bit (deterministic search, the perf gate's recall metrics). This kernel
    broadcasts the difference instead: one fused einsum per call, row ``q``
    equal to ``sq_l2_batch(queries[q], points)`` exactly.

    The broadcast temporary is ``len(queries) x len(points) x dim`` floats;
    ``chunk_elems`` bounds it by splitting along the query axis (chunking
    preserves per-row bit-identity) into one reused buffer. The default,
    2 MiB, leaves a 32-query batch against 400 centroids (or a 128-row
    fresh tier at dim 64) in one piece and keeps a caller that routes
    thousands of rows at once (``PostingWriter.route_batch``) from paying
    for them all at the same time.
    """
    nq, npts = len(queries), len(points)
    if nq == 0 or npts == 0:
        return np.zeros((nq, npts), dtype=np.float32)
    dim = points.shape[1]
    rows_per_chunk = max(1, chunk_elems // max(npts * dim, 1))
    if rows_per_chunk >= nq:
        diff = points[None, :, :] - queries[:, None, :]
        return np.einsum("qnj,qnj->qn", diff, diff).astype(np.float32, copy=False)
    out = np.empty((nq, npts), dtype=np.float32)
    buffer = np.empty(
        (rows_per_chunk, npts, dim), dtype=np.result_type(queries, points)
    )
    for start in range(0, nq, rows_per_chunk):
        stop = min(start + rows_per_chunk, nq)
        diff = np.subtract(
            points[None, :, :], queries[start:stop, None, :], out=buffer[: stop - start]
        )
        out[start:stop] = np.einsum("qnj,qnj->qn", diff, diff)
    return out


# Scalars gathered per chunk by the pair kernels (`sq_l2_pairs`,
# `repro.quantize.base.adc_scan_pairs`): bounds their temporaries to a few
# hundred KiB however many (query, row) pairs a batch produces.
PAIR_CHUNK_ELEMS = 1 << 16


def pair_chunks(bounds, width: int):
    """``(query, start, stop)`` chunks along a query-major pair axis.

    Query ``q`` owns pairs ``bounds[q]:bounds[q + 1]``. No chunk straddles
    two queries (so a kernel broadcasts one query per chunk) and none
    gathers more than ``PAIR_CHUNK_ELEMS`` scalars of ``width`` per pair.
    """
    step = max(1, PAIR_CHUNK_ELEMS // max(width, 1))
    for query, (begin, end) in enumerate(zip(bounds, bounds[1:])):
        for start in range(begin, end, step):
            yield query, start, min(start + step, end)


def sq_l2_pairs(
    queries: np.ndarray, points: np.ndarray, point_of: np.ndarray, bounds
) -> np.ndarray:
    """Squared L2 of (query, point) pairs: the batched scan's kernel.

    Each query meets only the rows of the postings it probes: pair ``p``
    of query ``q`` (``bounds[q] <= p < bounds[q + 1]``) is ``queries[q]``
    against ``points[point_of[p]]``. Same diff-then-einsum ops as
    :func:`sq_l2_batch`, so it is bit-identical to
    ``sq_l2_batch(queries[q], points)[point_of[p]]``; chunked along the
    pair axis so the gathered rows stay bounded.
    """
    out = np.empty(len(point_of), dtype=np.float32)
    for query, start, stop in pair_chunks(bounds, points.shape[1]):
        diff = points[point_of[start:stop]]
        diff -= queries[query]
        np.einsum("ij,ij->i", diff, diff, out=out[start:stop])
    return out


def pairwise_sq_l2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs squared L2 between rows of ``a`` and rows of ``b``.

    Uses the expanded ``|a|^2 - 2ab + |b|^2`` form for speed and clamps tiny
    negative values produced by floating-point cancellation to zero.

    One GEMM, then the elementwise passes run in place on row blocks of
    its output of about ``PAIR_CHUNK_ELEMS`` scalars, so each block stays
    in cache across them. Same operations in the same order as
    ``a2 + b2 - 2.0 * (a @ b.T)``, so the output is bit-identical to that
    one-liner for float32 and float64 inputs, mixed or not.
    """
    if len(a) == 0 or len(b) == 0:
        return np.zeros((len(a), len(b)), dtype=np.float32)
    a2 = np.einsum("ij,ij->i", a, a)[:, None]
    b2 = np.einsum("ij,ij->i", b, b)[None, :]
    out = a @ b.T
    step = max(1, PAIR_CHUNK_ELEMS // len(b))
    for start in range(0, len(a), step):
        block = out[start : start + step]
        block *= 2.0
        np.subtract(a2[start : start + step] + b2, block, out=block)
        np.maximum(block, 0.0, out=block)
    return out.astype(np.float32, copy=False)


def top_k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest values, sorted ascending by value.

    Stable tie-break on index so results are deterministic across runs.
    """
    n = len(values)
    if n == 0 or k <= 0:
        return np.empty(0, dtype=np.int64)
    k = min(k, n)
    if k == n:
        order = np.argsort(values, kind="stable")
        return order.astype(np.int64, copy=False)
    part = np.argpartition(values, k - 1)[:k]
    order = part[np.argsort(values[part], kind="stable")]
    return order.astype(np.int64, copy=False)
