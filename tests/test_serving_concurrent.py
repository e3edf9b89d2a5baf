"""Concurrent serving tests: the K-worker pool, fairness, replay pools.

Covers the simulated K-worker engine pool in ``ServingFrontend.run``
(determinism, goodput scaling, worker-occupancy invariants), the DWRR
fairness path end to end (victim p99 protection on a skewed trace), the
degenerate inputs a report must survive (empty trace, shed-only
tenants), the wall-clock replay in ``repro.serving.wallclock`` (thread and
forked-worker parity against the serial replay), and a hypothesis suite
for the batcher's two-trigger edges under the event loop. See the
"Concurrency model" section of docs/serving.md.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_arrival_trace
from repro.datasets.arrival import ArrivalTrace
from repro.api import QueryRequest, SearchResponse
from repro.serving import (
    ServingFrontend,
    batch_jobs,
    count_mismatches,
    replay,
    replay_pool,
)
from repro.util.workers import fork_available
from tests.conftest import DIM

K = 4
SATURATING_QPS = 120_000.0  # ~7x one worker's drain rate at this scale


@pytest.fixture
def query_pool(vectors, rng):
    return (vectors[:48] + rng.normal(scale=0.05, size=(48, DIM))).astype(
        np.float32
    )


@pytest.fixture
def saturating_trace(query_pool):
    """Poisson load well past one worker's capacity (shedding at K=1)."""
    return make_arrival_trace(
        query_pool,
        500,
        SATURATING_QPS,
        "poisson",
        tenant_weights=4,
        seed=13,
        name="saturating",
    )


@pytest.fixture
def skewed_trace(query_pool):
    """Bursty multi-tenant load with one dominant (8x) aggressor tenant."""
    return make_arrival_trace(
        query_pool,
        600,
        60_000.0,
        "bursty",
        hot_key_skew=0.5,
        tenant_weights=(8.0, 1.0, 1.0, 1.0),
        seed=17,
        name="skewed",
    )


def _frontend(engine, **overrides):
    kwargs = dict(
        k=5, queue_capacity=64, max_batch=8, max_wait_us=300.0
    )
    kwargs.update(overrides)
    return ServingFrontend(engine, **kwargs)


def _max_concurrent_batches(report) -> int:
    """Peak number of simultaneously-executing batches in a report."""
    events = []
    for b in report.batches:
        # Completion at the same instant as a dispatch frees the worker
        # first (that is exactly how the event loop reuses it).
        events.append((b.dispatch_us + b.service_us, 0))
        events.append((b.dispatch_us, 1))
    events.sort()
    peak = live = 0
    for _, kind in events:
        live += 1 if kind else -1
        peak = max(peak, live)
    return peak


class TestWorkerPool:
    def test_k4_run_is_byte_deterministic(self, built_index, saturating_trace):
        def once():
            report = _frontend(built_index.searcher, num_workers=K).run(
                saturating_trace
            )
            payload = dict(report.metrics())
            payload["per_tenant"] = {
                str(t): m for t, m in report.per_tenant_metrics().items()
            }
            return json.dumps(payload, sort_keys=True)

        assert once() == once()

    def test_pool_beats_single_worker_goodput(
        self, built_index, saturating_trace
    ):
        single = _frontend(built_index.searcher, num_workers=1).run(
            saturating_trace
        )
        pooled = _frontend(built_index.searcher, num_workers=K).run(
            saturating_trace
        )
        assert single.metrics()["shed_rate"] > 0.0, "trace must saturate K=1"
        assert (
            pooled.metrics()["goodput_qps"] > single.metrics()["goodput_qps"]
        )
        assert pooled.metrics()["shed_rate"] < single.metrics()["shed_rate"]

    def test_at_most_k_batches_overlap(self, built_index, saturating_trace):
        for workers in (1, 2, K):
            report = _frontend(built_index.searcher, num_workers=workers).run(
                saturating_trace
            )
            assert _max_concurrent_batches(report) <= workers

    def test_per_worker_batches_never_overlap(
        self, built_index, saturating_trace
    ):
        report = _frontend(built_index.searcher, num_workers=K).run(
            saturating_trace
        )
        assert {b.worker for b in report.batches} <= set(range(K))
        by_worker: dict[int, list] = {}
        for b in report.batches:
            by_worker.setdefault(b.worker, []).append(b)
        for batches in by_worker.values():
            batches.sort(key=lambda b: b.dispatch_us)
            for prev, nxt in zip(batches, batches[1:]):
                assert nxt.dispatch_us >= prev.dispatch_us + prev.service_us

    def test_worker_busy_accounting_matches_batches(
        self, built_index, saturating_trace
    ):
        report = _frontend(built_index.searcher, num_workers=K).run(
            saturating_trace
        )
        busy = report.worker_busy_us()
        assert len(busy) == K
        assert sum(busy) == pytest.approx(
            sum(b.service_us for b in report.batches)
        )
        m = report.metrics()
        assert m["num_workers"] == float(K)
        assert (
            0.0
            <= m["worker_busy_frac_min"]
            <= m["worker_busy_frac_mean"]
            <= m["worker_busy_frac_max"]
            <= 1.0 + 1e-9
        )

    def test_single_worker_serves_on_worker_zero(
        self, built_index, saturating_trace
    ):
        report = _frontend(built_index.searcher, num_workers=1).run(
            saturating_trace
        )
        assert all(b.worker == 0 for b in report.batches)
        m = report.metrics()
        assert m["worker_busy_frac_min"] == m["worker_busy_frac_max"]

    def test_query_rows_replay_the_batch_composition(
        self, built_index, saturating_trace
    ):
        report = _frontend(built_index.searcher, num_workers=K).run(
            saturating_trace
        )
        by_batch: dict[int, list] = {}
        for o in report.answered:
            by_batch.setdefault(o.batch_id, []).append(o)
        for b in report.batches:
            members = sorted(by_batch[b.batch_id], key=lambda o: o.index)
            assert b.query_rows == [o.query_index for o in members]
            assert b.size == len(members)

    def test_tenant_quota_shed_path(self, built_index, saturating_trace):
        report = _frontend(
            built_index.searcher,
            num_workers=2,
            tenant_quota_fraction=0.05,  # 3 slots of the 64-deep queue
            admission_wait_budget_us=None,
        ).run(saturating_trace)
        quota_shed = [
            o for o in report.shed if o.shed_reason == "tenant_quota"
        ]
        assert quota_shed, "a saturating trace must trip the tenant quota"
        assert report.shed_tenant_quota == len(quota_shed)
        assert (
            report.shed_queue_full
            + report.shed_wait_budget
            + report.shed_tenant_quota
            == len(report.shed)
        )
        for o in quota_shed:
            assert o.result is None and o.retry_after_us > 0.0


class TestFairnessEndToEnd:
    def test_dwrr_protects_victim_tenants(self, built_index, skewed_trace):
        dominant = int(np.bincount(skewed_trace.tenant).argmax())

        def victim_p99(report):
            per = report.per_tenant_metrics()
            return max(
                m["e2e_latency_us_p99"]
                for t, m in per.items()
                if t != dominant and m["e2e_latency_us_p99"] > 0.0
            )

        fifo = _frontend(built_index.searcher, num_workers=2).run(skewed_trace)
        dwrr = _frontend(
            built_index.searcher,
            num_workers=2,
            fairness="dwrr",
            tenant_weights=(1.0, 1.0, 1.0, 1.0),
        ).run(skewed_trace)
        assert victim_p99(dwrr) <= victim_p99(fifo)
        # Seat reassignment must not invent or lose requests.
        assert len(dwrr.outcomes) == len(fifo.outcomes) == len(skewed_trace)
        assert len(dwrr.answered) + len(dwrr.shed) == len(skewed_trace)

    def test_spread_is_reported_but_not_a_fairness_score(
        self, built_index, skewed_trace
    ):
        # DWRR deliberately *increases* max/min p99 spread (victims get
        # fast, the aggressor bears its own backlog) — pin the direction
        # so nobody "fixes" the gate back to spread later.
        fifo = _frontend(built_index.searcher, num_workers=2).run(skewed_trace)
        dwrr = _frontend(
            built_index.searcher, num_workers=2, fairness="dwrr"
        ).run(skewed_trace)
        assert fifo.tenant_p99_spread() >= 1.0
        assert dwrr.tenant_p99_spread() >= fifo.tenant_p99_spread()


class TestDegenerateInputs:
    def test_empty_trace_yields_well_defined_report(
        self, built_index, query_pool
    ):
        empty = make_arrival_trace(query_pool, 0, 1000.0, seed=1)
        assert len(empty) == 0
        assert empty.num_tenants == 0
        assert empty.duration_us == 0.0
        assert empty.offered_qps == 0.0
        report = _frontend(built_index.searcher, num_workers=K).run(empty)
        assert report.outcomes == [] and report.batches == []
        m = report.metrics()
        assert m["offered_requests"] == 0.0
        assert m["shed_rate"] == 0.0
        assert m["goodput_qps"] == 0.0
        assert m["worker_busy_frac_mean"] == 0.0
        json.dumps(m)  # must serialize without NaN/inf surprises
        assert all(np.isfinite(v) for v in m.values())
        assert report.per_tenant_metrics() == {}
        assert report.tenant_p99_spread() == 1.0
        assert batch_jobs(empty, report) == []

    def test_shed_only_tenant_reports_cleanly(self, built_index, query_pool):
        # Tenant 0 fires first and occupies the only worker; tenant 1's
        # requests all land inside that service window against a 10us
        # wait budget, so every one of them sheds.
        trace = ArrivalTrace(
            name="shed-only",
            arrival_us=np.array([0.0, 1.0, 2.0, 3.0]),
            tenant=np.array([0, 1, 1, 1], dtype=np.int32),
            query_index=np.arange(4, dtype=np.int32),
            queries=query_pool[:4],
        )
        report = ServingFrontend(
            built_index.searcher,
            k=5,
            max_batch=1,
            max_wait_us=0.0,
            admission_wait_budget_us=10.0,
        ).run(trace)
        per = report.per_tenant_metrics()
        assert per[0]["shed_rate"] == 0.0
        assert per[1]["shed_rate"] == 1.0
        assert per[1]["e2e_latency_us_p99"] == 0.0
        assert all(
            o.shed_reason == "wait_budget"
            for o in report.shed
            if o.tenant == 1
        )
        # Only one tenant has answered latency: spread degenerates to 1.
        assert report.tenant_p99_spread() == 1.0
        json.dumps(report.metrics())

    def test_negative_request_count_rejected(self, query_pool):
        with pytest.raises(ValueError):
            make_arrival_trace(query_pool, -1, 1000.0)


# ----------------------------------------------------------------------
# wall-clock replay pools
# ----------------------------------------------------------------------
@pytest.fixture
def replay_setup(built_index, saturating_trace):
    report = _frontend(built_index.searcher, num_workers=2).run(
        saturating_trace
    )
    jobs = batch_jobs(saturating_trace, report)
    baseline = replay(built_index.searcher, jobs, 5)
    return jobs, baseline


class TestEnginePools:
    def test_batch_jobs_match_recorded_composition(
        self, built_index, saturating_trace
    ):
        report = _frontend(built_index.searcher, num_workers=2).run(
            saturating_trace
        )
        jobs = batch_jobs(saturating_trace, report)
        assert len(jobs) == len(report.batches)
        for vectors, batch in zip(jobs, report.batches):
            assert vectors.shape == (batch.size, DIM)
            np.testing.assert_array_equal(
                vectors, saturating_trace.queries[batch.query_rows]
            )

    def test_thread_pool_parity_with_serial_replay(
        self, built_index, replay_setup
    ):
        jobs, baseline = replay_setup
        assert baseline.num_workers == 1
        with replay_pool(built_index.searcher, 3, fork=False) as pool:
            pooled = replay(built_index.searcher, jobs, 5, pool=pool)
        assert pooled.num_workers == 3
        assert count_mismatches(baseline, pooled) == 0

    @pytest.mark.skipif(
        not fork_available(), reason="needs the 'fork' start method"
    )
    def test_process_pool_parity_with_serial_replay(
        self, built_index, replay_setup
    ):
        jobs, baseline = replay_setup
        engine = built_index.searcher
        with replay_pool(engine, 2, fork=True) as pool:
            pooled = replay(engine, jobs, 5, pool=pool)
            assert count_mismatches(baseline, pooled) == 0
            # Reusing the warm pool must stay bit-identical too.
            again = replay(engine, jobs, 5, pool=pool)
            assert count_mismatches(baseline, again) == 0
        pool.close()  # idempotent after context exit
        with pytest.raises(RuntimeError):
            replay(engine, jobs, 5, pool=pool)

    @pytest.mark.skipif(
        not fork_available(), reason="needs the 'fork' start method"
    )
    def test_process_pool_refuses_background_engines(
        self, vectors, small_config
    ):
        class _Bg:
            _background_running = True

            def query(self, request):  # pragma: no cover
                return []

        with pytest.raises(RuntimeError, match="background"):
            replay_pool(_Bg(), 2, fork=True)
        # A facade engine is searched through groups[*].replicas.
        from repro.distributed import ClusterSPFresh

        with ClusterSPFresh.build(
            vectors, num_shards=2, config=small_config
        ) as cluster:
            cluster.groups[1].replicas[0].start()
            with pytest.raises(RuntimeError, match="background"):
                replay_pool(cluster, 2, fork=True)

    def test_empty_schedule_replays_to_nothing(self, built_index):
        engine = built_index.searcher
        baseline = replay(engine, [], 5)
        with replay_pool(engine, 2, fork=False) as pool:
            pooled = replay(engine, [], 5, pool=pool)
        assert baseline.batch_answers == [] and pooled.batch_answers == []
        assert count_mismatches(baseline, pooled) == 0

    def test_count_mismatches_detects_perturbation(
        self, built_index, replay_setup
    ):
        jobs, baseline = replay_setup
        other = replay(built_index.searcher, jobs, 5)
        assert count_mismatches(baseline, other) == 0
        ids, distances = other.batch_answers[0][0]
        other.batch_answers[0][0] = (ids, distances + 1.0)
        assert count_mismatches(baseline, other) == 1

    def test_count_mismatches_rejects_shape_drift(
        self, built_index, replay_setup
    ):
        jobs, baseline = replay_setup
        short = replay(built_index.searcher, jobs[:-1], 5)
        with pytest.raises(ValueError):
            count_mismatches(baseline, short)

    def test_thread_pool_surfaces_worker_errors(self):
        class _Boom:
            def query(self, request):
                raise RuntimeError("engine exploded")

        with replay_pool(_Boom(), 2, fork=False) as pool:
            with pytest.raises(RuntimeError, match="engine exploded"):
                replay(_Boom(), [np.zeros((1, DIM))], 5, pool=pool)

    def test_answer_batch_rejects_surfaceless_engine(self, built_index):
        with pytest.raises(AttributeError, match="query"):
            replay(object(), [np.zeros((1, DIM))], 5)
        # The searcher answers every knob a served request carries.
        request = QueryRequest(vectors=np.zeros((2, DIM)), k=5, rerank_k=2)
        answers = replay(built_index.searcher, [request.vectors], 5, rerank_k=2)
        want = built_index.searcher.query(request)
        for (ids, dists), result in zip(answers.batch_answers[0], want):
            np.testing.assert_array_equal(ids, result.ids)
            np.testing.assert_array_equal(dists, result.distances)

    def test_pool_validation(self, built_index):
        with pytest.raises(ValueError):
            replay_pool(built_index.searcher, 0, fork=False)

    def test_replay_asks_what_was_served(
        self, vectors, small_config, saturating_trace
    ):
        # The replay pools used to rebuild (vectors, k, nprobe) requests:
        # a frontend run with rerank_k set was replayed without it.
        from repro.core.index import SPFreshIndex

        index = SPFreshIndex.build(
            vectors,
            config=small_config.with_overrides(
                enable_merge=False,  # keep query() free of side effects
                quant_enabled=True,
                quant_kind="pq",
                quant_subspaces=8,
                quant_codebook_size=16,
            ),
        )
        with replay_pool(index, 2, fork=False) as pool:
            for knobs in ({"rerank_k": 1}, {"quantized": False}):
                report = ServingFrontend(
                    index, k=5, num_workers=2, keep_results=True, **knobs
                ).run(saturating_trace)
                jobs = batch_jobs(saturating_trace, report)
                for replayed in (
                    replay(index, jobs, 5, **knobs),
                    replay(index, jobs, 5, pool=pool, **knobs),
                ):
                    seats = [s for batch in replayed.batch_answers for s in batch]
                    assert len(seats) == len(report.answered)
                    for (ids, distances), outcome in zip(seats, report.answered):
                        np.testing.assert_array_equal(ids, outcome.result.ids)
                        np.testing.assert_array_equal(
                            distances, outcome.result.distances
                        )
                # ... and without the knob the replay answers something else.
                assert count_mismatches(replay(index, jobs, 5), replayed) > 0


# ----------------------------------------------------------------------
# hypothesis: batcher two-trigger edges under the event loop
# ----------------------------------------------------------------------
class _StubResult:
    __slots__ = ("ids", "distances", "latency_us", "io_latency_us")

    def __init__(self, io_us: float, cpu_us: float) -> None:
        self.ids = np.zeros(1, dtype=np.int64)
        self.distances = np.zeros(1, dtype=np.float32)
        self.io_latency_us = io_us
        self.latency_us = io_us + cpu_us


class _StubEngine:
    """Constant-cost engine: every query costs the same io/cpu terms,
    so batch service depends only on batch *size* and the event loop's
    schedule is a pure function of arrivals and knobs — cheap enough for
    hypothesis to sweep the trigger edges."""

    def __init__(self, io_us: float = 120.0, cpu_us: float = 40.0) -> None:
        self.io_us = io_us
        self.cpu_us = cpu_us

    def query(self, request):
        return SearchResponse(
            [_StubResult(self.io_us, self.cpu_us) for _ in request.vectors]
        )


_POOL = np.zeros((4, DIM), dtype=np.float32)


@st.composite
def _traces(draw):
    gaps = draw(
        st.lists(
            st.floats(0.0, 400.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=50,
        )
    )
    tenants = draw(
        st.lists(
            st.integers(0, 3), min_size=len(gaps), max_size=len(gaps)
        )
    )
    return ArrivalTrace(
        name="hypothesis",
        arrival_us=np.cumsum(np.asarray(gaps, dtype=np.float64)),
        tenant=np.asarray(tenants, dtype=np.int32),
        query_index=np.zeros(len(gaps), dtype=np.int32),
        queries=_POOL,
    )


_KNOBS = dict(
    max_batch=st.integers(1, 6),
    max_wait_us=st.sampled_from([0.0, 50.0, 250.0]),
    num_workers=st.integers(1, 4),
)
_WEIGHTS = st.sampled_from(
    [
        None,
        (1.0, 1.0, 1.0, 1.0),
        (8.0, 1.0, 1.0, 1.0),
        (1e-6, 1.0),  # exercises the DWRR round fast-forward
        (1e-6, 1e-6, 1e-6, 1e-6),
        (100.0, 1e-3),
    ]
)


class TestBatcherProperties:
    @given(trace=_traces(), fairness=st.sampled_from(["fifo", "dwrr"]), **_KNOBS)
    @settings(max_examples=60, deadline=None)
    def test_every_request_resolved_exactly_once(
        self, trace, fairness, max_batch, max_wait_us, num_workers
    ):
        report = ServingFrontend(
            _StubEngine(),
            k=1,
            queue_capacity=8,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            num_workers=num_workers,
            fairness=fairness,
            admission_wait_budget_us=5000.0,
        ).run(trace)
        assert len(report.outcomes) == len(trace)
        assert len(report.answered) + len(report.shed) == len(trace)
        assert sorted(o.index for o in report.outcomes) == list(
            range(len(trace))
        )
        assert sum(b.size for b in report.batches) == len(report.answered)
        assert all(1 <= b.size <= max_batch for b in report.batches)
        assert _max_concurrent_batches(report) <= num_workers
        for o in report.answered:
            assert o.queue_wait_us >= 0.0
            assert o.assembly_wait_us >= 0.0
            assert o.e2e_us == pytest.approx(
                o.queue_wait_us + o.assembly_wait_us + o.engine_us
            )

    @given(trace=_traces(), weights=_WEIGHTS, **_KNOBS)
    @settings(max_examples=60, deadline=None)
    def test_dwrr_degenerates_to_fifo_with_one_tenant(
        self, trace, weights, max_batch, max_wait_us, num_workers
    ):
        # With a single tenant there is nothing to arbitrate: DWRR must
        # reproduce FIFO bit for bit whatever the weights — including
        # far-below-1 weights, which force the round fast-forward on
        # every contended batch.
        solo = ArrivalTrace(
            name=trace.name,
            arrival_us=trace.arrival_us,
            tenant=np.zeros(len(trace), dtype=np.int32),
            query_index=trace.query_index,
            queries=trace.queries,
        )

        def run(fairness, tenant_weights=None):
            report = ServingFrontend(
                _StubEngine(),
                k=1,
                queue_capacity=8,
                max_batch=max_batch,
                max_wait_us=max_wait_us,
                num_workers=num_workers,
                fairness=fairness,
                tenant_weights=tenant_weights,
                admission_wait_budget_us=5000.0,
            ).run(solo)
            return report

        fifo = run("fifo")
        dwrr = run("dwrr", weights)
        assert [
            (b.dispatch_us, b.size, b.worker, b.query_rows)
            for b in fifo.batches
        ] == [
            (b.dispatch_us, b.size, b.worker, b.query_rows)
            for b in dwrr.batches
        ]
        assert json.dumps(fifo.metrics(), sort_keys=True) == json.dumps(
            dwrr.metrics(), sort_keys=True
        )

    @given(trace=_traces(), fairness=st.sampled_from(["fifo", "dwrr"]), **_KNOBS)
    @settings(max_examples=40, deadline=None)
    def test_run_is_deterministic(
        self, trace, fairness, max_batch, max_wait_us, num_workers
    ):
        def once():
            report = ServingFrontend(
                _StubEngine(),
                k=1,
                queue_capacity=8,
                max_batch=max_batch,
                max_wait_us=max_wait_us,
                num_workers=num_workers,
                fairness=fairness,
                tenant_weights=(2.0, 1.0),
                admission_wait_budget_us=5000.0,
            ).run(trace)
            return json.dumps(report.metrics(), sort_keys=True)

        assert once() == once()

    def test_simultaneous_arrivals_fill_one_batch(self):
        # Five requests at the same instant, batch of 4: the size trigger
        # fires for the first four, the straggler rides the time trigger.
        trace = ArrivalTrace(
            name="tie",
            arrival_us=np.array([10.0] * 5),
            tenant=np.zeros(5, dtype=np.int32),
            query_index=np.zeros(5, dtype=np.int32),
            queries=_POOL,
        )
        report = ServingFrontend(
            _StubEngine(), k=1, max_batch=4, max_wait_us=100.0
        ).run(trace)
        assert [b.size for b in report.batches] == [4, 1]
        assert len(report.answered) == 5
