"""Quickstart: build an SPFresh index, search it, and update it in place.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import QueryRequest
from repro import SPFreshConfig, SPFreshIndex

RNG = np.random.default_rng(0)
DIM = 32


def main() -> None:
    # --- 1. Build a disk-based index over an initial vector set ----------
    base_vectors = RNG.normal(size=(5000, DIM)).astype(np.float32)
    config = SPFreshConfig(dim=DIM)
    index = SPFreshIndex.build(base_vectors, config=config)
    print(f"built index: {index.num_postings} postings, "
          f"{index.live_vector_count} vectors, "
          f"{index.memory_bytes() / 1024:.1f} KiB DRAM")

    # --- 2. Search -------------------------------------------------------
    query = base_vectors[42] + RNG.normal(scale=0.01, size=DIM).astype(np.float32)
    result = index.query(QueryRequest.single(query, k=10)).result
    print(f"top-10 for a query near vector 42: {result.ids.tolist()}")
    print(f"simulated latency: {result.latency_us:.0f} us "
          f"({result.postings_probed} postings, "
          f"{result.entries_scanned} entries scanned)")

    # --- 3. Update in place: no global rebuild, ever ----------------------
    fresh = RNG.normal(loc=2.0, size=(800, DIM)).astype(np.float32)
    for i, vector in enumerate(fresh):
        index.insert(5000 + i, vector)
    for vector_id in range(300):
        index.delete(vector_id)
    index.drain()  # let the Local Rebuilder finish split/merge/reassign

    print(f"after 1100 updates: {index.num_postings} postings, "
          f"{index.live_vector_count} live vectors")
    snap = index.stats.snapshot()
    print(f"LIRE activity: {snap.splits} splits, {snap.merges} merges, "
          f"{snap.reassign_executed} reassigns "
          f"(of {snap.reassign_evaluated} evaluated)")

    # --- 4. New vectors are immediately searchable ------------------------
    result = index.query(QueryRequest.single(fresh[0], k=5)).result
    assert result.ids[0] == 5000, "the newly inserted vector should be #1"
    print(f"nearest to the first inserted vector: {result.ids.tolist()}")

    # --- 5. Deleted vectors never come back -------------------------------
    result = index.query(
        QueryRequest.single(base_vectors[0], k=10, nprobe=index.num_postings)
    ).result
    assert 0 not in set(int(x) for x in result.ids)
    print("deleted vector 0 is gone from results — done.")


if __name__ == "__main__":
    main()
