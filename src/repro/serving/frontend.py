"""Open-loop serving simulation: arrivals → admission → batcher → engine.

The frontend is a deterministic discrete-event loop over an
:class:`~repro.datasets.arrival.ArrivalTrace`. Two event types exist —
*a request arrives* and *a batch dispatches* — and they are processed
in strict simulated-time order, so the whole run is a pure function of
(trace, knobs, index state): byte-identical metrics under a fixed seed,
which is what lets serving tail latency gate CI next to the engine's
simulated metrics (the repo's two-clock model; see
``docs/performance.md``).

The engine model is a pool of ``num_workers`` independent executors
(the K-worker pool; ``num_workers=1`` reproduces the historical serial
executor bit-for-bit). Each worker is one simulated resource with its
own busy-until horizon; a ready batch dispatches to the earliest-free
worker (lowest index on ties) and occupies it for the batch's full
service time

    service = shared batch IO + sum of per-query CPU terms

(the IO wave completion the device model already charges, plus each
query's scan/navigation CPU run back to back on one core). Every
request in a batch completes when the batch does, and its end-to-end
latency decomposes exactly as

    e2e = queue wait (engine busy) + assembly wait (batcher holding)
        + engine service

so regressions attribute to the right layer: a queue-wait regression is
a capacity problem, an assembly-wait regression a batcher-tuning
problem, an engine regression belongs to the index.

Fairness: with ``fairness="dwrr"`` batch seats are assigned by
deficit-weighted round robin across tenants (see
:class:`~repro.serving.batcher.DwrrBatcher`) so a bursty tenant cannot
monopolize dispatch; ``tenant_quota_fraction`` additionally bounds any
one tenant's share of the queue at admission. Wall-clock execution of
the same batches on real threads/processes lives in
``repro.serving.replay`` — informational only, never gated.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.api import QueryRequest
from repro.datasets.arrival import ArrivalTrace
from repro.metrics.latency import percentile_metrics
from repro.serving.admission import AdmissionController
from repro.serving.batcher import DwrrBatcher, DynamicBatcher


def batch_surface(engine):
    """The engine's batch entry point as ``answer(QueryRequest) -> list``.

    Typed-API engines (``SPFreshIndex``, ``ClusterSPFresh``) take the
    request through ``query``; bare searcher-level engines
    (``SpannSearcher``) take ``search_many(queries, k, nprobe)`` and
    none of the other knobs. The frontend and the replay workers both
    answer batches through this, so a replay asks what was served.
    """
    query = getattr(engine, "query", None)
    if query is not None:
        return lambda request: list(query(request).results)
    search = getattr(engine, "search_many", None)
    if search is None:
        raise TypeError("engine must expose query or search_many")

    def answer(request: QueryRequest) -> list:
        if request.rerank_k is not None or request.quantized is not None:
            raise TypeError(
                "rerank_k/quantized knobs need a QueryRequest-capable "
                "engine (one exposing query())"
            )
        return search(request.vectors, request.k, request.nprobe)

    return answer


@dataclass
class RequestOutcome:
    """Per-request accounting, filled in as the request moves through."""

    index: int
    tenant: int
    arrival_us: float
    query_index: int
    status: str = "queued"  # -> "answered" | "shed"
    shed_reason: str = ""
    retry_after_us: float = 0.0
    modelled_wait_us: float = 0.0
    dispatch_us: float = 0.0
    completion_us: float = 0.0
    queue_wait_us: float = 0.0
    assembly_wait_us: float = 0.0
    engine_us: float = 0.0
    batch_id: int = -1
    result: object = None  # SearchResult, only when keep_results

    @property
    def e2e_us(self) -> float:
        """End-to-end latency (queue + assembly + engine)."""
        return self.completion_us - self.arrival_us


@dataclass
class BatchRecord:
    """One dispatched batch."""

    batch_id: int
    dispatch_us: float
    size: int
    io_us: float
    service_us: float
    worker: int = 0  # which pool worker served it
    # Trace query rows the batch answered, in seat order — enough to
    # replay the exact batch composition on a wall-clock pool.
    query_rows: list[int] = field(default_factory=list)


@dataclass
class ServingReport:
    """Everything one frontend run produced, plus derived metrics."""

    trace_name: str
    slo_us: float
    outcomes: list[RequestOutcome]
    batches: list[BatchRecord]
    wall_s: float = 0.0
    shed_queue_full: int = 0
    shed_wait_budget: int = 0
    shed_tenant_quota: int = 0
    num_workers: int = 1

    # ------------------------------------------------------------------
    @property
    def answered(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.status == "answered"]

    @property
    def shed(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.status == "shed"]

    @property
    def makespan_us(self) -> float:
        """Simulated span from t=0 to the last completion (or arrival)."""
        end = max((o.completion_us for o in self.answered), default=0.0)
        last_arrival = (
            max(o.arrival_us for o in self.outcomes) if self.outcomes else 0.0
        )
        return max(end, last_arrival)

    def metrics(self) -> dict[str, float]:
        """Flat deterministic metric dict (the BENCH/report payload)."""
        answered = self.answered
        offered = len(self.outcomes)
        n_shed = len(self.shed)
        within_slo = sum(1 for o in answered if o.e2e_us <= self.slo_us)
        span_s = self.makespan_us / 1e6
        e2e = [o.e2e_us for o in answered]
        out = {
            "offered_requests": float(offered),
            "answered_requests": float(len(answered)),
            "shed_requests": float(n_shed),
            "shed_rate": n_shed / offered if offered else 0.0,
            "shed_queue_full": float(self.shed_queue_full),
            "shed_wait_budget": float(self.shed_wait_budget),
            "shed_tenant_quota": float(self.shed_tenant_quota),
            "num_workers": float(self.num_workers),
            "slo_violation_rate": (
                (len(answered) - within_slo) / len(answered) if answered else 0.0
            ),
            "offered_qps": offered / span_s if span_s > 0 else 0.0,
            "answered_qps": len(answered) / span_s if span_s > 0 else 0.0,
            "goodput_qps": within_slo / span_s if span_s > 0 else 0.0,
            **percentile_metrics(e2e, "e2e_latency_us"),
            "queue_wait_us_mean": (
                float(np.mean([o.queue_wait_us for o in answered]))
                if answered
                else 0.0
            ),
            "assembly_wait_us_mean": (
                float(np.mean([o.assembly_wait_us for o in answered]))
                if answered
                else 0.0
            ),
            "engine_us_mean": (
                float(np.mean([o.engine_us for o in answered])) if answered else 0.0
            ),
            "batch_count": float(len(self.batches)),
            "batch_size_mean": (
                float(np.mean([b.size for b in self.batches]))
                if self.batches
                else 0.0
            ),
            "batch_size_max": (
                float(max(b.size for b in self.batches)) if self.batches else 0.0
            ),
            "retry_after_us_mean": (
                float(np.mean([o.retry_after_us for o in self.shed]))
                if n_shed
                else 0.0
            ),
        }
        busy = self.worker_busy_us()
        span = self.makespan_us
        out["worker_busy_frac_mean"] = (
            float(np.mean(busy)) / span if span > 0 else 0.0
        )
        out["worker_busy_frac_max"] = max(busy) / span if span > 0 else 0.0
        out["worker_busy_frac_min"] = min(busy) / span if span > 0 else 0.0
        return out

    def worker_busy_us(self) -> list[float]:
        """Total simulated service time charged to each pool worker."""
        busy = [0.0] * self.num_workers
        for b in self.batches:
            busy[b.worker] += b.service_us
        return busy

    def tenant_p99_spread(self) -> float:
        """Max/min ratio of per-tenant answered p99 e2e latency.

        1.0 means every tenant sees the same tail; large values mean some
        tenant's tail is inflated relative to the luckiest tenant. Only
        tenants with at least one answered request participate; fewer
        than two such tenants (or a zero minimum) yield 1.0.
        """
        p99s = [
            m["e2e_latency_us_p99"]
            for m in self.per_tenant_metrics().values()
            if m["e2e_latency_us_p99"] > 0.0
        ]
        if len(p99s) < 2:
            return 1.0
        return max(p99s) / min(p99s)

    def per_tenant_metrics(self) -> dict[int, dict[str, float]]:
        """Offered/answered/shed counts and p99 e2e per tenant."""
        tenants: dict[int, dict[str, list]] = {}
        for o in self.outcomes:
            slot = tenants.setdefault(o.tenant, {"e2e": [], "shed": 0, "n": 0})
            slot["n"] += 1
            if o.status == "shed":
                slot["shed"] += 1
            else:
                slot["e2e"].append(o.e2e_us)
        out: dict[int, dict[str, float]] = {}
        for tenant, slot in sorted(tenants.items()):
            e2e = np.asarray(slot["e2e"], dtype=np.float64)
            out[tenant] = {
                "offered": float(slot["n"]),
                "shed_rate": slot["shed"] / slot["n"],
                "e2e_latency_us_p99": (
                    round(float(np.percentile(e2e, 99.0)), 3) if e2e.size else 0.0
                ),
            }
        return out


class ServingFrontend:
    """Bounded queue + admission + dynamic batcher over one engine."""

    def __init__(
        self,
        engine,
        *,
        k: int,
        nprobe: int | None = None,
        rerank_k: int | None = None,
        quantized: bool | None = None,
        queue_capacity: int = 256,
        max_batch: int = 32,
        max_wait_us: float = 1500.0,
        slo_us: float = 15_000.0,
        admission_wait_budget_us: float | None = 30_000.0,
        num_workers: int = 1,
        fairness: str = "fifo",
        tenant_weights=None,
        tenant_quota_fraction: float | None = None,
        keep_results: bool = False,
    ) -> None:
        if slo_us <= 0:
            raise ValueError("slo_us must be positive")
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if fairness not in ("fifo", "dwrr"):
            raise ValueError(
                f"unknown fairness {fairness!r} (choose 'fifo' or 'dwrr')"
            )
        self._answer = batch_surface(engine)
        self.engine = engine
        self.k = k
        self.nprobe = nprobe
        self.rerank_k = rerank_k
        self.quantized = quantized
        self.slo_us = slo_us
        self.num_workers = num_workers
        self.fairness = fairness
        self.keep_results = keep_results
        if fairness == "dwrr":
            self.batcher: DynamicBatcher = DwrrBatcher(
                max_batch=max_batch,
                max_wait_us=max_wait_us,
                tenant_weights=tenant_weights,
            )
        else:
            self.batcher = DynamicBatcher(
                max_batch=max_batch, max_wait_us=max_wait_us
            )
        self.admission = AdmissionController(
            queue_capacity=queue_capacity,
            wait_budget_us=admission_wait_budget_us,
            max_batch=max_batch,
            num_workers=num_workers,
            tenant_quota_fraction=tenant_quota_fraction,
        )

    @classmethod
    def from_config(
        cls, engine, config, *, k: int, nprobe: int | None = None, **overrides
    ) -> "ServingFrontend":
        """Build a frontend from ``SPFreshConfig``'s serving knobs."""
        kwargs = dict(
            queue_capacity=config.serve_queue_capacity,
            max_batch=config.serve_max_batch,
            max_wait_us=config.serve_max_wait_us,
            slo_us=config.serve_slo_us,
            admission_wait_budget_us=config.serve_admission_wait_budget_us,
            num_workers=config.serve_num_workers,
            fairness=config.serve_fairness,
            tenant_weights=config.serve_tenant_weights,
            tenant_quota_fraction=config.serve_tenant_quota_fraction,
        )
        kwargs.update(overrides)
        return cls(engine, k=k, nprobe=nprobe, **kwargs)

    # ------------------------------------------------------------------
    def run(self, trace: ArrivalTrace) -> ServingReport:
        """Simulate the full trace; returns the per-request accounting.

        Strict event ordering: at any step the earlier of (next arrival,
        next batch dispatch) is processed; an arrival landing exactly at
        a dispatch instant misses that batch (dispatch wins the tie).
        """
        wall_start = time.perf_counter()
        n = len(trace)
        arrivals = trace.arrival_us
        queue: deque[RequestOutcome] = deque()
        outcomes: list[RequestOutcome] = []
        batches: list[BatchRecord] = []
        # One busy-until horizon per pool worker; a batch dispatches when
        # both the batcher says it is ready and some worker is free.
        workers = [0.0] * self.num_workers
        queued_by_tenant: dict[int, int] = {}
        i = 0
        while i < n or queue:
            ready = self.batcher.ready_at(queue)
            earliest_free = min(workers)
            dispatch_at = max(ready, earliest_free)
            next_arrival = arrivals[i] if i < n else math.inf
            if next_arrival < dispatch_at:
                tenant = int(trace.tenant[i])
                outcome = RequestOutcome(
                    index=i,
                    tenant=tenant,
                    arrival_us=float(next_arrival),
                    query_index=int(trace.query_index[i]),
                )
                outcomes.append(outcome)
                decision = self.admission.admit(
                    float(next_arrival),
                    len(queue),
                    earliest_free,
                    tenant_depth=queued_by_tenant.get(tenant, 0),
                )
                outcome.modelled_wait_us = decision.modelled_wait_us
                if decision.admitted:
                    queue.append(outcome)
                    queued_by_tenant[tenant] = (
                        queued_by_tenant.get(tenant, 0) + 1
                    )
                else:
                    outcome.status = "shed"
                    outcome.shed_reason = decision.reason
                    outcome.retry_after_us = decision.retry_after_us
                i += 1
                continue
            # Dispatch the batch that became ready at ``ready`` onto the
            # earliest-free worker (lowest index wins horizon ties).
            worker = workers.index(earliest_free)
            batch = self.batcher.take(queue)
            for r in batch:
                queued_by_tenant[r.tenant] -= 1
            rows = [r.query_index for r in batch]
            results = self._answer(
                QueryRequest(
                    vectors=trace.queries[rows],
                    k=self.k,
                    nprobe=self.nprobe,
                    rerank_k=self.rerank_k,
                    quantized=self.quantized,
                )
            )
            io_us = max(r.io_latency_us for r in results)
            cpu_us = sum(r.latency_us - r.io_latency_us for r in results)
            service_us = io_us + cpu_us
            completion = dispatch_at + service_us
            batch_id = len(batches)
            batches.append(
                BatchRecord(
                    batch_id=batch_id,
                    dispatch_us=dispatch_at,
                    size=len(batch),
                    io_us=io_us,
                    service_us=service_us,
                    worker=worker,
                    query_rows=rows,
                )
            )
            for outcome, result in zip(batch, results):
                # Up to ``blocked`` the request waited on busy workers;
                # from there to dispatch it waited on batch assembly.
                blocked = min(
                    max(earliest_free, outcome.arrival_us), dispatch_at
                )
                outcome.status = "answered"
                outcome.dispatch_us = dispatch_at
                outcome.completion_us = completion
                outcome.queue_wait_us = blocked - outcome.arrival_us
                outcome.assembly_wait_us = dispatch_at - blocked
                outcome.engine_us = service_us
                outcome.batch_id = batch_id
                if self.keep_results:
                    outcome.result = result
            self.admission.observe_batch(service_us)
            workers[worker] = completion
        return ServingReport(
            trace_name=trace.name,
            slo_us=self.slo_us,
            outcomes=outcomes,
            batches=batches,
            wall_s=time.perf_counter() - wall_start,
            shed_queue_full=self.admission.shed_queue_full,
            shed_wait_budget=self.admission.shed_wait_budget,
            shed_tenant_quota=self.admission.shed_tenant_quota,
            num_workers=self.num_workers,
        )
