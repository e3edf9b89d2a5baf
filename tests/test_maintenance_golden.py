"""Golden digests of the index state after seeded maintenance, recorded
before reassign jobs were batched per source posting and before APPEND
continued the record stream byte for byte.

Split, merge, reassign, flush and append have differential and invariant
tests, but those compare the pipeline with a model of itself; these
literals are the independent oracle that the *order* of maintenance work
did not move. Each case builds one seeded index, applies a fixed
insert/delete churn with synchronous drains (queries interleaved, since
a query is what reports undersized postings for merging), and hashes
everything the maintenance path writes: every posting's decoded columns
and block list, every centroid, the version map, every ``LireStats``
counter and the device ``IOStats``. A refactor of ``core/rebuilder.py``,
``core/jobs.py`` or ``BlockController.append`` must reproduce them byte
for byte.

To re-record after an *intended* change of operation order, run
``PYTHONPATH=src python tests/test_maintenance_golden.py`` and paste the
printed table over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import astuple, fields

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.core.stats import StatsSnapshot

DIM = 16

BASE = dict(
    dim=DIM,
    max_posting_size=32,
    min_posting_size=3,
    build_target_posting_size=16,
    ssd_blocks=1 << 13,
    reassign_range=8,
    seed=11,
)
PQ = dict(quant_enabled=True, quant_kind="pq", quant_subspaces=4, quant_codebook_size=32)
FRESH = dict(enable_fresh_tier=True, fresh_flush_threshold=48)
# Small blocks put several blocks under every posting, so appends cross
# block boundaries in both sections of the quantized layout.
SMALL_BLOCKS = dict(block_size=1024)
# A merge threshold just under the build's posting size: the delete-heavy
# stream leaves most postings undersized and the interleaved queries
# report them.
MERGING = dict(min_posting_size=12, build_target_posting_size=16)

CASES = {
    "exact": {},
    "pq": {**PQ, **SMALL_BLOCKS},
    "pq_fresh": {**PQ, **SMALL_BLOCKS, **FRESH},
    "merging": MERGING,
}

GOLDEN: dict[str, str] = {
    "exact": "89db22a243144a5a81b6c7230adf2563",
    "pq": "0e27de46a46f1dc3e463e9b78c706104",
    "pq_fresh": "904135500de963d76cdd8d91f9769235",
    "merging": "1e8ab1f63f5d30ec0c78f02a014f7860",
}


def _data():
    rng = np.random.default_rng(20231023)
    centers = rng.normal(scale=5.0, size=(6, DIM)).astype(np.float32)

    def blobs(n, drift=0.0):
        which = rng.integers(0, len(centers), size=n)
        return (
            centers[which] + drift + rng.normal(scale=0.7, size=(n, DIM))
        ).astype(np.float32)

    # The inserts drift away from the base distribution, so they pile into
    # few postings and force splits with real reassign traffic.
    return blobs(600), blobs(400, drift=1.5), blobs(48), rng


def _churn(case: str) -> SPFreshIndex:
    base, inserts, queries, rng = _data()
    index = SPFreshIndex.build(base, config=SPFreshConfig(**{**BASE, **CASES[case]}))
    live = list(range(len(base)))
    next_id = len(base)
    deletes_per_round = 45 if case == "merging" else 12
    for round_, chunk in enumerate(np.array_split(inserts, 8)):
        if case != "merging" or round_ < 2:
            for vec in chunk:
                index.insert(next_id, vec)
                live.append(next_id)
                next_id += 1
        for slot in sorted(
            rng.choice(len(live), size=deletes_per_round, replace=False), reverse=True
        ):
            index.delete(live.pop(int(slot)))
        for q in queries[round_ * 6 : round_ * 6 + 6]:
            index.query(QueryRequest.single(q, k=10, nprobe=6))
        index.query(QueryRequest(vectors=queries[:8], k=10, nprobe=6))
    index.flush_fresh_tier()
    index.drain()
    return index


def _digest(index: SPFreshIndex) -> str:
    h = hashlib.sha256()
    # Device counters first: reading the postings back below moves them.
    io = index.ssd.stats.snapshot()
    h.update(repr(astuple(io)).encode())
    stats = index.stats.snapshot()
    h.update(repr([(f.name, getattr(stats, f.name)) for f in fields(StatsSnapshot)]).encode())
    h.update(repr(sorted(index.rebuilder.io_by_job.items())).encode())
    mapping = index.controller.state_dict()["mapping"]
    for pid in sorted(mapping):
        length, blocks = mapping[pid]
        data, _ = index.controller.get(pid)
        h.update(struct.pack("<qqq", pid, length, len(blocks)))
        h.update(np.asarray(blocks, dtype=np.int64).tobytes())
        h.update(data.ids.tobytes())
        h.update(data.versions.tobytes())
        h.update(np.ascontiguousarray(data.vectors).tobytes())
        if data.codes is not None:
            h.update(np.ascontiguousarray(data.codes).tobytes())
        h.update(np.asarray(index.centroid_index.get(pid), dtype=np.float32).tobytes())
    h.update(index.version_map.state_dict()["bytes"].tobytes())
    return h.hexdigest()[:32]


@pytest.mark.parametrize("case", list(CASES))
def test_golden_digest(case):
    index = _churn(case)
    digest = _digest(index)  # before the audit below reads the device
    stats = index.stats.snapshot()
    # The digest means nothing unless the case reaches the work it is
    # there for.
    assert stats.splits > 0 and stats.reassign_executed > 0
    assert stats.reassign_aborted_version > 0 and stats.reassign_aborted_npa > 0
    if "pq" in case:
        assert getattr(index.controller.codec, "sectioned", False)
    if "fresh" in case:
        assert stats.fresh_flushes > 0
    if case == "merging":
        assert stats.merges > 0
    # (NPA is sampled and tolerance-based; the drifting inserts sit at its
    # allowance, so only the hard conservation properties are asserted.)
    report = index.check_invariants()
    assert not report.lost_vectors and not report.oversized_postings
    assert not report.postings_without_centroid and not report.code_mismatches
    assert digest == GOLDEN[case]


if __name__ == "__main__":
    print("GOLDEN: dict[str, str] = {")
    for name in CASES:
        print(f'    "{name}": "{_digest(_churn(name))}",')
    print("}")
