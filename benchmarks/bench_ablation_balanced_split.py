"""Ablation (DESIGN.md #4) — balanced vs plain k-means for posting splits.

SPANN/SPFresh use multi-constraint *balanced* clustering so postings stay
even and tail latency bounded. This bench splits skewed postings with both
clusterers and compares the split-size imbalance each produces.
"""

import numpy as np

from benchmarks.conftest import DIM, run_once
from repro.bench.reporting import format_table
from repro.clustering.balanced import split_in_two
from repro.clustering.lloyd import kmeans

TRIALS = 60
POSTING_SIZE = 120


def skewed_posting(rng):
    """A posting whose contents are 85/15 split across two micro-clusters."""
    heavy = rng.normal(size=(int(POSTING_SIZE * 0.85), DIM))
    light = rng.normal(loc=3.0, size=(POSTING_SIZE - len(heavy), DIM))
    return np.vstack([heavy, light]).astype(np.float32)


def imbalance(assignments):
    counts = np.bincount(assignments, minlength=2)
    return counts.max() / max(counts.min(), 1)


def test_ablation_balanced_split(benchmark):
    rng = np.random.default_rng(0)
    postings = [skewed_posting(rng) for _ in range(TRIALS)]

    def experiment():
        balanced, plain = [], []
        for points in postings:
            _, a = split_in_two(points, np.random.default_rng(1), balance_weight=16.0)
            balanced.append(imbalance(a))
            _, b = kmeans(points, 2, np.random.default_rng(1))
            plain.append(imbalance(b))
        return np.array(balanced), np.array(plain)

    balanced, plain = run_once(benchmark, experiment)

    print()
    print(
        format_table(
            ["clusterer", "mean max/min", "p90 max/min", "worst"],
            [
                ("balanced 2-means", balanced.mean(), np.percentile(balanced, 90), balanced.max()),
                ("plain 2-means", plain.mean(), np.percentile(plain, 90), plain.max()),
            ],
            title="Ablation: split balance (lower is better)",
        )
    )
    # Balanced splits must be meaningfully more even on skewed postings.
    assert balanced.mean() < plain.mean()
    assert np.percentile(balanced, 90) < np.percentile(plain, 90)
