"""Clustering algorithms used to build and maintain the partitioned index.

``lloyd`` (the ``kmeans`` function) is plain Lloyd's with k-means++
seeding; ``balanced`` adds the multi-constraint size penalty from SPANN
(NeurIPS '21) that LIRE reuses for posting splits; ``hierarchical`` composes balanced clustering recursively to
produce the large number of small, even postings the static build needs.
"""

from repro.clustering.lloyd import kmeans, kmeans_plus_plus_init
from repro.clustering.balanced import balanced_kmeans, split_in_two
from repro.clustering.hierarchical import hierarchical_balanced_clustering

__all__ = [
    "kmeans",
    "kmeans_plus_plus_init",
    "balanced_kmeans",
    "split_in_two",
    "hierarchical_balanced_clustering",
]
