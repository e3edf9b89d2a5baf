"""Recall metrics (paper §2.1: RecallK@K = |Y ∩ G| / |G|)."""

from __future__ import annotations

import numpy as np

from repro.api import QueryRequest


def recall_at_k(result_ids, ground_truth_ids, k: int | None = None) -> float:
    """Mean RecallK@K across queries.

    ``result_ids`` and ``ground_truth_ids`` are per-query sequences of ids
    (ragged lists or 2-D arrays). ``k`` defaults to each query's ground
    truth size. Queries with empty ground truth are skipped.
    """
    if len(result_ids) != len(ground_truth_ids):
        raise ValueError("result and ground-truth lists must align")
    total = 0.0
    counted = 0
    for results, truth in zip(result_ids, ground_truth_ids):
        truth = [int(t) for t in truth]
        if k is not None:
            truth = truth[:k]
        if not truth:
            continue
        results = [int(r) for r in results]
        if k is not None:
            results = results[:k]
        total += len(set(results) & set(truth)) / len(truth)
        counted += 1
    return total / counted if counted else 0.0


def recall_curve(
    engine, queries: np.ndarray, ground_truth: np.ndarray, k: int, nprobes: list[int]
) -> list[tuple[int, float, float]]:
    """Sweep nprobe and return (nprobe, recall, mean simulated latency us).

    Each query goes to ``engine.query`` as ``QueryRequest.single(query,
    k=k, nprobe=n)``, so one curve function serves every engine in the
    Figure 10 ablation.
    """
    curve: list[tuple[int, float, float]] = []
    for nprobe in nprobes:
        all_ids = []
        latencies = []
        for query in queries:
            result = engine.query(QueryRequest.single(query, k=k, nprobe=nprobe))
            all_ids.append(result.ids)
            latencies.append(result.latency_us)
        recall = recall_at_k(all_ids, ground_truth, k)
        curve.append((nprobe, recall, float(np.mean(latencies))))
    return curve
