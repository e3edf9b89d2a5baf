"""SPFresh (SOSP '23) reproduction: in-place updatable disk ANNS index.

Public entry points:

* :class:`repro.SPFreshIndex` — the paper's system (build / query /
  insert / delete / checkpoint / recover);
* :class:`repro.SPFreshConfig` — every tunable, with ablation presets;
* :mod:`repro.baselines` — SPANN+ and DiskANN/FreshDiskANN comparators;
* :mod:`repro.datasets` — synthetic SIFT-like / SPACEV-like workloads;
* :mod:`repro.bench` — the harness that regenerates the paper's figures.
"""

from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex, SearchResult

__version__ = "1.0.0"

__all__ = ["SPFreshIndex", "SPFreshConfig", "SearchResult", "__version__"]
