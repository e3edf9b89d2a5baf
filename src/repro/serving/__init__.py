"""Serving front-end: open-loop admission, dynamic batching, SLO accounting.

This package turns the engine's batched ``query`` hot path into a
*service*: requests arrive on their own schedule (``repro.datasets.
arrival``), pass an admission controller guarding a bounded queue, are
coalesced by a dynamic batcher under a latency SLO, and leave with a
fully decomposed end-to-end latency (queue wait + batch assembly +
engine time) on the simulated clock — so goodput, tail latency, SLO
violations, and shed rates are byte-deterministic under a fixed seed
and gate CI like every other simulated metric.

The engine side is a K-worker pool on both clocks: simulated (the
frontend's per-worker busy-until horizons — deterministic, gated) and
wall (``replay`` of the recorded batch schedule, serially or on a
thread/forked-process ``WorkerPool`` — informational, parity-checked
against the serial replay). Batch seats are assigned FIFO or
by deficit-weighted round robin across tenants (``DwrrBatcher``).

See ``docs/serving.md`` for the model and knobs.
"""

from repro.serving.admission import AdmissionController, AdmissionDecision
from repro.serving.batcher import DwrrBatcher, DynamicBatcher
from repro.serving.frontend import (
    BatchRecord,
    RequestOutcome,
    ServingFrontend,
    ServingReport,
)
from repro.serving.wallclock import (
    ReplayResult,
    batch_jobs,
    count_mismatches,
    replay,
    replay_pool,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BatchRecord",
    "DwrrBatcher",
    "DynamicBatcher",
    "ReplayResult",
    "RequestOutcome",
    "ServingFrontend",
    "ServingReport",
    "batch_jobs",
    "count_mismatches",
    "replay",
    "replay_pool",
]
