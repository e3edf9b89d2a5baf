"""Inner-product (MIPS) search on SPFresh via the L2 reduction.

SPACEV-style deep NLP encoders rank documents by dot product, while
SPFresh's LIRE protocol assumes Euclidean geometry. The bridge is the
classic order-preserving MIPS→L2 augmentation: one extra coordinate
completes every data vector to a common norm, after which L2 nearest
neighbors of the augmented query are exactly the maximum-inner-product
documents. The wrapped index stays fully updatable — LIRE runs unchanged
in the augmented space.

Run:  python examples/inner_product_search.py
"""

import numpy as np

from repro.api import QueryRequest
from repro import SPFreshConfig
from repro.util.mips import MipsSPFreshIndex

RNG = np.random.default_rng(5)
DIM = 32


def main() -> None:
    # "Documents": random directions with varying magnitudes (dot-product
    # relevance depends on both direction and norm).
    directions = RNG.normal(size=(4000, DIM)).astype(np.float32)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    magnitudes = RNG.uniform(0.5, 2.0, size=(4000, 1)).astype(np.float32)
    corpus = directions * magnitudes

    index = MipsSPFreshIndex.build(
        corpus, config=SPFreshConfig(dim=DIM + 1)
    )
    print(f"MIPS index over {index.live_vector_count} documents "
          f"(augmented dim {index.transform.augmented_dim}, "
          f"norm bound {index.transform.norm_bound:.2f})")

    query = RNG.normal(size=DIM).astype(np.float32)
    result = index.query(QueryRequest.single(query, k=5, nprobe=16)).result
    exact = corpus @ query
    exact_top = np.argsort(-exact)[:5]
    print(f"top-5 by index:  {result.ids.tolist()}")
    print(f"top-5 exact MIPS: {exact_top.tolist()}")
    print("scores (inner products):",
          [round(float(s), 3) for s in result.distances])
    assert int(result.ids[0]) == int(exact_top[0])

    # Updates work exactly as in the L2 index.
    strong_doc = (query / np.linalg.norm(query)) * (
        index.transform.norm_bound * 0.9
    )
    index.insert(10_000, strong_doc.astype(np.float32))
    result = index.query(QueryRequest.single(query, k=1, nprobe=16)).result
    assert int(result.ids[0]) == 10_000
    print("a freshly inserted high-dot-product document is now the top hit.")


if __name__ == "__main__":
    main()
