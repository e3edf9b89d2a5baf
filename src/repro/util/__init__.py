"""Shared low-level utilities: distance kernels, RNG helpers, errors."""

from repro.util.distance import (
    DistanceMetric,
    pairwise_sq_l2,
    sq_l2,
    sq_l2_batch,
    top_k_smallest,
)
from repro.util.errors import (
    ReproError,
    StorageError,
    IndexError_,
    RecoveryError,
    ConfigError,
)
from repro.util.mips import MipsSPFreshIndex, MipsTransform

__all__ = [
    "DistanceMetric",
    "pairwise_sq_l2",
    "sq_l2",
    "sq_l2_batch",
    "top_k_smallest",
    "ReproError",
    "StorageError",
    "IndexError_",
    "RecoveryError",
    "ConfigError",
    "MipsSPFreshIndex",
    "MipsTransform",
]
