"""DiskANN / FreshDiskANN baseline (paper §5.1).

A disk-resident Vamana graph index with product-quantized in-memory
vectors for traversal, tombstone deletes, and the FreshDiskANN
``streamingMerge`` global consolidation — the out-of-place update design
whose rebuild pauses and accuracy decay SPFresh is measured against.
"""

from repro.baselines.diskann.fresh import DiskANNConfig, FreshDiskANNIndex
from repro.baselines.diskann.vamana import build_vamana, greedy_search, robust_prune
from repro.quantize.pq import ProductQuantizer

__all__ = [
    "ProductQuantizer",
    "build_vamana",
    "greedy_search",
    "robust_prune",
    "DiskANNConfig",
    "FreshDiskANNIndex",
]
