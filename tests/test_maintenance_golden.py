"""Golden digests of the index after seeded maintenance, in two halves.

Split, merge, reassign, flush and append have differential and invariant
tests, but those compare the pipeline with a model of itself; these
literals are the independent oracle that the *order* of maintenance work
did not move. Each case builds one seeded index, applies a fixed
insert/delete churn with synchronous drains (queries interleaved, since
a query is what reports undersized postings for merging), and hashes
what the maintenance path leaves behind:

* ``STATE`` — what the index holds: every posting's decoded columns and
  PQ codes, every centroid, the version map and every ``LireStats``
  counter. A refactor of ``core/rebuilder.py``, ``core/jobs.py`` or
  ``BlockController.append`` must reproduce it byte for byte. These
  literals were recorded before a split's reassign rows became one job
  with one grouped append per destination posting, and did not move.
* ``DEVICE`` — how it got to disk: the device ``IOStats``, the rebuilder's
  ``io_by_job`` and every posting's block list. Re-recorded by a change
  that is *meant* to touch the device differently; last for the grouped
  reassign appends (``exact``: 20,652 -> 3,054 device write ops for the
  same postings).

To re-record after an *intended* change, run
``PYTHONPATH=src python tests/test_maintenance_golden.py`` and paste the
printed tables over ``STATE`` / ``DEVICE``.
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

STATE: dict[str, str] = {
    "exact": "97d92611902dff4758a3d58cb7697b5f",
    "pq": "510e853e9c07a8b7069de8ca0cdf467d",
    "pq_fresh": "e22dbcd97e3a4a376014554469ad6ae2",
    "merging": "9b812ba7cff2a2d11783535ade43baf1",
}
DEVICE: dict[str, str] = {
    "exact": "1d60c69825bce2d838a4a6693ab73411",
    "pq": "808ec55be21c1986abc5253d0a46db51",
    "pq_fresh": "ba3ad5b5072c407810b12449fea2cacc",
    "merging": "1a7490f286c9832fcc0ef4fcde0efe72",
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


def _digest(index: SPFreshIndex) -> tuple[str, str]:
    """``(state, device)``: what the index holds, and how it got to disk."""
    state, device = hashlib.sha256(), hashlib.sha256()
    # Device counters first: reading the postings back below moves them.
    device.update(repr(astuple(index.ssd.stats.snapshot())).encode())
    device.update(repr(sorted(index.rebuilder.io_by_job.items())).encode())
    stats = index.stats.snapshot()
    state.update(
        repr([(f.name, getattr(stats, f.name)) for f in fields(StatsSnapshot)]).encode()
    )
    mapping = index.controller.state_dict()["mapping"]
    for pid in sorted(mapping):
        length, blocks = mapping[pid]
        data, _ = index.controller.get(pid)
        device.update(struct.pack("<qq", pid, len(blocks)))
        device.update(np.asarray(blocks, dtype=np.int64).tobytes())
        state.update(struct.pack("<qq", pid, length))
        state.update(data.ids.tobytes())
        state.update(data.versions.tobytes())
        state.update(np.ascontiguousarray(data.vectors).tobytes())
        if data.codes is not None:
            state.update(np.ascontiguousarray(data.codes).tobytes())
        state.update(np.asarray(index.centroid_index.get(pid), dtype=np.float32).tobytes())
    state.update(index.version_map.state_dict()["bytes"].tobytes())
    return state.hexdigest()[:32], device.hexdigest()[:32]


@pytest.mark.parametrize("case", list(CASES))
def test_golden_digest(case):
    index = _churn(case)
    state, device = _digest(index)  # before the audit below reads the device
    stats = index.stats.snapshot()
    # The digest means nothing unless the case reaches the work it is
    # there for.
    assert stats.splits > 0 and stats.reassign_executed > 0
    assert stats.reassign_aborted_version > 0 and stats.reassign_aborted_npa > 0
    if "pq" in case:
        assert index.controller.codec.quantizer is not None
    if "fresh" in case:
        assert stats.fresh_flushes > 0
    if case == "merging":
        assert stats.merges > 0
    # (NPA is sampled and tolerance-based; the drifting inserts sit at its
    # allowance, so only the hard conservation properties are asserted.)
    report = index.check_invariants()
    assert not report.lost_vectors and not report.oversized_postings
    assert not report.postings_without_centroid and not report.code_mismatches
    assert state == STATE[case]
    assert device == DEVICE[case]


if __name__ == "__main__":
    digests = {name: _digest(_churn(name)) for name in CASES}
    for half, table in enumerate(("STATE", "DEVICE")):
        print(f"{table}: dict[str, str] = {{")
        for name, digest in digests.items():
            print(f'    "{name}": "{digest[half]}",')
        print("}")
