"""Golden digests of the searcher's output, recorded before the search
paths were collapsed into one pipeline.

Single-vs-batch and exact-vs-rerank-everything parity tests compare the
pipeline with itself; these literals are the independent oracle. Each
case builds one seeded index, applies a fixed insert/delete churn, and
hashes every ``SearchResult`` field of 64 single queries and two 32-row
batches. A refactor of ``spann/searcher.py`` must reproduce them byte
for byte.

To re-record after an *intended* behaviour change, run
``PYTHONPATH=src python tests/test_search_golden.py`` and paste the
printed table over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex

DIM = 16
K = 10
NPROBE = 6

BASE = dict(
    dim=DIM,
    max_posting_size=32,
    min_posting_size=3,
    build_target_posting_size=16,
    ssd_blocks=1 << 13,
    reassign_range=8,
    seed=7,
)
FRESH = dict(enable_fresh_tier=True, fresh_flush_threshold=64)
PQ = dict(quant_enabled=True, quant_kind="pq", quant_subspaces=4, quant_codebook_size=32)
SQ8 = dict(quant_enabled=True, quant_kind="sq8")
# Small blocks and a shallow device queue make every posting cost read
# waves; each budget below is tight enough that some queries lose part of
# their probe list and some do not (a code-section scan costs far less
# than a full-posting scan, hence the two values).
WAVES = dict(block_size=512, queue_depth=4)
# A raised merge threshold reports postings as undersized; merging is off
# so the reports do not reshape the index between queries.
UNDERSIZED = dict(search_prune_epsilon=0.1, min_posting_size=22, enable_merge=False)

CASES = {
    "exact": {},
    "exact_fresh": FRESH,
    "pq_fresh": {**PQ, **FRESH},
    "sq8": SQ8,
    "budget_exact_fresh": {**WAVES, **FRESH, "search_latency_budget_us": 600.0},
    "budget_pq_fresh": {**WAVES, **PQ, **FRESH, "search_latency_budget_us": 211.55},
    "undersized_exact": UNDERSIZED,
    "undersized_pq": {**UNDERSIZED, **PQ},
}

# case -> (digest of 64 single queries, digest of two 32-row batches)
GOLDEN: dict[str, tuple[str, str]] = {
    "exact": (
        "cb9e980f8ec4a19b6801d89825cc5374",
        "fb81682e5c4fc920a0870c395e4ad147",
    ),
    "exact_fresh": (
        "7ed7353f1b2d157bac2af489a32a6955",
        "1dbbbfc2871aef122a63e1ac1e7ac125",
    ),
    "pq_fresh": (
        "3ab1718fb82ae88d51bed77b89959558",
        "188d8ea06661e29504af1f991c05d925",
    ),
    "sq8": (
        "5ce2450fa207ffeceec336cb3db25a39",
        "b0bd0b6d67f23fd6779baadd635c26fb",
    ),
    "budget_exact_fresh": (
        "f50e7cefc9023404777ddccfa6675f0f",
        "a0e2b593b9e8d29339673d644bf904d0",
    ),
    "budget_pq_fresh": (
        "97791b44a3a580429a34c6c1a68ee573",
        "e064e25e51c4a5bd5a56fe9aafa79097",
    ),
    "undersized_exact": (
        "d30501e1cc0d44b9f0933926889a955e",
        "621d75cd928d511fef2eb1f8ddee9693",
    ),
    "undersized_pq": (
        "b9fdce5fa0c17ce1390a772ecc1739f9",
        "9e03aa0b9468b152f3b112f427fcab7c",
    ),
}


def _data():
    rng = np.random.default_rng(20230923)
    centers = rng.normal(scale=5.0, size=(6, DIM)).astype(np.float32)

    def blobs(n):
        which = rng.integers(0, len(centers), size=n)
        return (centers[which] + rng.normal(scale=0.7, size=(n, DIM))).astype(
            np.float32
        )

    base, inserts, queries = blobs(600), blobs(180), blobs(64)
    deletes = rng.permutation(600 + 120)[:110]  # base ids and fresh inserts
    return base, inserts, deletes, queries


def _churned_index(overrides, base, inserts, deletes) -> SPFreshIndex:
    index = SPFreshIndex.build(base, config=SPFreshConfig(**{**BASE, **overrides}))
    for i, vec in enumerate(inserts[:120]):
        index.insert(600 + i, vec)
    for vid in deletes:
        index.delete(int(vid))
    for i, vec in enumerate(inserts[120:]):
        index.insert(720 + i, vec)
    return index


def _digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        ids = np.asarray(r.ids, dtype=np.int64)
        undersized = np.asarray(r.undersized_postings, dtype=np.int64)
        h.update(struct.pack("<qq", len(ids), len(undersized)))
        h.update(ids.tobytes())
        h.update(np.asarray(r.distances, dtype=np.float32).tobytes())
        h.update(undersized.tobytes())
        h.update(struct.pack("<dd", r.latency_us, r.io_latency_us))
        h.update(
            struct.pack(
                "<qqqq?",
                r.postings_probed,
                r.entries_scanned,
                r.fresh_entries_scanned,
                r.reranked_entries,
                r.truncated,
            )
        )
    return h.hexdigest()[:32]


def _run(case: str):
    *stream, queries = _data()
    index = _churned_index(CASES[case], *stream)
    singles = [
        index.query(QueryRequest.single(q, k=K, nprobe=NPROBE)).result
        for q in queries
    ]
    batches = [
        r
        for half in (queries[:32], queries[32:])
        for r in index.query(QueryRequest(vectors=half, k=K, nprobe=NPROBE)).results
    ]
    return singles, batches


@pytest.mark.parametrize("case", list(CASES))
def test_golden_digest(case):
    singles, batches = _run(case)
    # The digests mean nothing unless the case reaches the fields it is
    # there for.
    if "fresh" in case:
        assert all(r.fresh_entries_scanned > 0 for r in singles + batches)
    if "pq" in case or "sq8" in case:
        assert all(r.reranked_entries > 0 for r in singles + batches)
    if case.startswith("budget"):
        cut = [r.truncated for r in singles]
        assert any(cut) and not all(cut)
        budget = CASES[case]["search_latency_budget_us"]
        assert all(r.latency_us == budget for r in singles if r.truncated)
        assert not any(r.truncated for r in batches)  # batches are not cut
    if case.startswith("undersized"):
        assert any(r.undersized_postings for r in singles)
        assert any(r.undersized_postings for r in batches)
        assert len({r.postings_probed for r in singles}) > 1  # pruning bites
    assert (_digest(singles), _digest(batches)) == GOLDEN[case]


if __name__ == "__main__":
    print("GOLDEN: dict[str, tuple[str, str]] = {")
    for name in CASES:
        single_digest, batch_digest = (_digest(part) for part in _run(name))
        print(f'    "{name}": (\n        "{single_digest}",\n        "{batch_digest}",\n    ),')
    print("}")
