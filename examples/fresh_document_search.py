"""Fresh document retrieval: real-time inserts must be recallable at once.

The paper's motivation (§2.3) includes retrieval-augmented AI assistants:
notes, emails, and chat snippets arrive continuously as embeddings and
must be retrievable *immediately* — the ChatGPT-retrieval-plugin setting.
This script simulates a personal document store: documents stream in
grouped by topic (new topics appear over time, shifting the distribution),
and after every batch we query for the newest documents to verify they are
recalled without any rebuild or warm-up.

Run:  python examples/fresh_document_search.py
"""

import numpy as np

from repro.api import QueryRequest
from repro import SPFreshConfig, SPFreshIndex
from repro.datasets import make_spacev_like

RNG = np.random.default_rng(21)
DIM = 32
BATCHES = 8
BATCH_SIZE = 250


def main() -> None:
    # Seed corpus + a drifted stream: new "topics" gain probability mass
    # over time, exactly the distribution shift LIRE has to absorb.
    corpus = make_spacev_like(
        3000, BATCHES * BATCH_SIZE, dim=DIM, seed=21, drift=0.8
    )
    index = SPFreshIndex.build(corpus.base, config=SPFreshConfig(dim=DIM))
    print(f"indexed seed corpus of {index.live_vector_count} documents\n")

    next_id = 3000
    for batch in range(BATCHES):
        docs = corpus.pool[batch * BATCH_SIZE : (batch + 1) * BATCH_SIZE]
        ids = np.arange(next_id, next_id + len(docs))
        index.insert_batch(ids, docs)
        next_id += len(docs)

        # Freshness check: query with slight paraphrase noise for the 50
        # newest documents; they must already be recall-able.
        probe_ids = ids[-50:]
        probe_vecs = docs[-50:] + RNG.normal(
            scale=0.05, size=(50, DIM)
        ).astype(np.float32)
        hits = sum(
            int(pid) in set(map(int, index.query(QueryRequest.single(vec, k=10)).result.ids))
            for pid, vec in zip(probe_ids, probe_vecs)
        )
        snap = index.stats.snapshot()
        print(f"batch {batch + 1}: {len(docs)} new docs -> "
              f"fresh-recall {hits}/50, "
              f"{index.num_postings} postings, "
              f"{snap.splits} splits so far")

    print(f"\nfinal store: {index.live_vector_count} documents, "
          f"{index.memory_bytes() / 1024:.0f} KiB DRAM, zero rebuilds")


if __name__ == "__main__":
    main()
