"""Phase skeleton, correctness oracle and metric computation.

One closed-loop client on one thread drives the public facades
(``SPFreshIndex``, ``ClusterSPFresh``, ``ServingFrontend``). Every
workload runs the same phases:

    set-up (repeated; median reported)
    -> 9 read rounds on the freshly built index, each a chunk of single
       queries, a chunk of 32-row batches and one serving trace
    -> the update stream with interleaved queries, cut into 5 segments
       that each end in checkpoint, more updates, crash and recovery
    -> recall against exact kNN over the live set, then the audit

Host time is ``time.perf_counter`` around one facade call; simulated
time is whatever the program's device/CPU model reports. This sandbox's
host noise is one-sided (the machine only ever gets slower, by up to a
third, for seconds at a time), so host-time metrics are computed per
chunk of consecutive calls and the quietest chunk is reported (the
smallest per-chunk time, the largest per-chunk rate).
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np
from repro import SPFreshConfig, SPFreshIndex
from repro.api import QueryRequest
from repro.datasets.arrival import ArrivalTrace
from repro.distributed import ClusterSPFresh
from repro.serving import ServingFrontend
from repro.storage.snapshot import SnapshotManager
from repro.storage.wal import WriteAheadLog

from specs import (
    BATCH_ROWS,
    K,
    NUM_SHARDS,
    READ_ROUNDS,
    RECOVERY_CYCLES,
    SERVE_WORKERS,
    Inputs,
    Spec,
)
from tracing import CONTROLLER_READS, SpanSummary, Tracer, instrument

LIRE_FIELDS = (
    "inserts",
    "deletes",
    "splits",
    "merges",
    "reassign_evaluated",
    "reassign_executed",
    "gc_writebacks",
    "fresh_flushes",
    "fresh_flushed_vectors",
    "fresh_flush_appends",
)
IO_FIELDS = (
    "read_ops",
    "write_ops",
    "block_reads",
    "block_writes",
    "bytes_read",
    "bytes_written",
    "busy_us",
)
STAGES = ("navigate", "scan", "topk", "tables", "rerank")


class Target:
    """The facade under test plus the handles a crash leaves behind."""

    def __init__(self, spec: Spec, base: np.ndarray, profiling: bool) -> None:
        self.spec = spec
        self.config = SPFreshConfig(
            dim=spec.dim, enable_profiling=profiling, **spec.config
        )
        self.wal = self.snapshots = None
        if spec.facade == "cluster":
            self.facade = ClusterSPFresh.build(
                base, num_shards=NUM_SHARDS, config=self.config
            )
        else:
            # In-memory log and snapshot store: a crash drops the index
            # object and keeps device, log and snapshot, as the repo's own
            # crash tests do; nothing touches a real disk.
            self.wal = WriteAheadLog()
            self.snapshots = SnapshotManager()
            self.facade = SPFreshIndex.build(
                base, config=self.config, wal=self.wal, snapshots=self.snapshots
            )
            self.facade.checkpoint()

    def indexes(self) -> list:
        """Every SPFreshIndex behind the facade."""
        if self.spec.facade == "cluster":
            return [r for g in self.facade.groups for r in g.replicas]
        return [self.facade]

    def survivors(self) -> list:
        """The indexes whose device outlives a crash: the index itself, or
        replica 0 of each shard (the peer a lost replica resyncs from)."""
        if self.spec.facade == "cluster":
            return [g.replicas[0] for g in self.facade.groups]
        return [self.facade]

    def counters(self) -> dict:
        """LireStats, device stats and profiler stages, summed over every
        replica (on the cluster each replica applies each write)."""
        out = dict.fromkeys(LIRE_FIELDS + IO_FIELDS + STAGES, 0)
        out["cascade_max_depth"] = 0
        for index in self.indexes():
            lire, io = index.stats.snapshot(), index.ssd.stats.snapshot()
            for name in LIRE_FIELDS:
                out[name] += getattr(lire, name)
            for name in IO_FIELDS:
                out[name] += getattr(io, name)
            for stage, stats in index.profile_snapshot().items():
                if stage in STAGES:
                    out[stage] += stats["total_us"] / 1e6
            out["cascade_max_depth"] = max(
                out["cascade_max_depth"], lire.split_cascade_max_depth
            )
        return out

    def live_ids(self) -> set:
        ids: set = set()
        for index in self.survivors():
            ids.update(index.version_map.live_ids().tolist())
        return ids

    def survivor_block_reads(self) -> int:
        return sum(index.ssd.stats.block_reads for index in self.survivors())

    def used_bytes(self) -> int:
        return sum(i.ssd.used_blocks() * i.ssd.block_size for i in self.indexes())


@dataclass
class Oracle:
    """Counts every op and check; anything that goes wrong is a failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


class Driver:
    """Times one facade call at a time; records root spans when tracing."""

    def __init__(self, tracer: Tracer | None, oracle: Oracle) -> None:
        self.tracer = tracer
        self.oracle = oracle

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)``; returns (result or None, host seconds)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(name)
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # noqa: BLE001 - a raising op is a counted failure
            out = None
            self.oracle.check(False, f"{name} raised: {traceback.format_exc(limit=3)}")
        else:
            self.oracle.attempted += 1
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        return out, elapsed


def chunked(values, most: int = 32, least: int = 40) -> list:
    """Consecutive chunks of at least ``least`` samples, at most ``most``."""
    values = np.asarray(values, dtype=np.float64)
    return np.array_split(values, max(1, min(most, len(values) // least)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibration_ms() -> float:
    """Fixed numpy + Python kernel; its drift is the machine's, not ours."""
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(256, 32)).astype(np.float32)
    vector = rng.normal(size=32).astype(np.float32)
    start = time.perf_counter()
    total = 0
    for _ in range(300):
        dists = ((matrix - vector) ** 2).sum(axis=1)
        total += int(np.argpartition(dists, 10)[:10].sum())
        total += len({int(x) for x in range(64)})
    return (time.perf_counter() - start) * 1e3


def exact_knn(queries: np.ndarray, ids: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    dists = (
        (queries**2).sum(axis=1)[:, None]
        - 2.0 * queries @ vectors.T
        + (vectors**2).sum(axis=1)[None, :]
    )
    return ids[np.argsort(dists, axis=1, kind="stable")[:, :K]]


def audit_failures(report) -> list:
    """The program's invariant failures, minus one known false alarm.

    The audit re-encodes whole postings and compares with the stored PQ
    codes, which were encoded row by row; the program's matmul distance
    kernel rounds differently for the two shapes, so a vector that sits
    on a codeword boundary can flip. One or two such rows are that, not
    lost coherence.
    """
    flipped = sum(rows for _, rows in getattr(report, "code_mismatches", ()))
    if 0 < flipped <= 2:
        report = replace(report, code_mismatches=[])
    return report.failures


class Run:
    """One run of one workload; phases fill the sample lists in order."""

    def __init__(self, spec: Spec, inputs: Inputs, trace: bool) -> None:
        self.spec, self.inputs = spec, inputs
        self.oracle = Oracle()
        self.tracer = Tracer() if trace else None
        self.driver = Driver(self.tracer, self.oracle)
        self.setup_s: list = []
        self.search_s: list = []
        self.batch_s: list = []
        self.churn_s: list = []
        self.update_s: list = []
        self.recovery_s: list = []
        self.sim_us: list = []
        self.serve_s: dict = {}  # rate -> host seconds per trace segment
        self.reports: dict = {}  # rate -> ServingReport per trace segment
        # SearchResult totals over the single queries of the read rounds.
        self.probed = self.scanned = self.reranked = self.returned = 0
        self.counts = dict.fromkeys(LIRE_FIELDS + IO_FIELDS + STAGES, 0)
        self.counts["cascade_max_depth"] = 0
        self.live = {i: row for i, row in enumerate(inputs.base)}
        self.deleted: set = set()
        self.wal_bytes = self.snapshot_bytes = self.checkpoints = 0
        self.inserted_bytes = self.replayed = self.recovery_block_reads = 0
        self.acked_lost = 0
        self.space_amp = 0.0

    # ------------------------------------------------------------ helpers
    def single(self, row) -> QueryRequest:
        return QueryRequest.single(
            self.inputs.queries[row], k=K, nprobe=self.spec.nprobe
        )

    def batch(self, rows) -> QueryRequest:
        return QueryRequest(
            vectors=self.inputs.queries[rows], k=K, nprobe=self.spec.nprobe
        )

    def bank(self) -> None:
        """Fold the counters accumulated since the last baseline into the
        totals (a recovered index starts its own LireStats and profiler)."""
        now = self.target.counters()
        for name, value in now.items():
            if name == "cascade_max_depth":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value - self.since[name]
        self.since = now

    # ------------------------------------------------------------- phases
    def set_up(self, repeats: int) -> None:
        """Build + first checkpoint + warm-up pass, ``repeats`` times."""
        spec, warm = self.spec, self.inputs.queries[:BATCH_ROWS]
        for _ in range(repeats):
            start = time.perf_counter()
            target = Target(spec, self.inputs.base, profiling=self.tracer is not None)
            for row in warm:
                target.facade.query(QueryRequest.single(row, k=K, nprobe=spec.nprobe))
            target.facade.query(QueryRequest(vectors=warm, k=K, nprobe=spec.nprobe))
            self.setup_s.append(time.perf_counter() - start)
        self.target = target
        self.facade = target.facade
        self.build = self.since = target.counters()
        self.build_postings = self.facade.num_postings
        self.index_mem_mb = self.facade.memory_bytes() / 2**20
        if self.tracer is not None:
            instrument(self.tracer, self.facade)

    def read_rounds(self) -> None:
        """Single queries, batches and serving traces, interleaved so each
        metric samples the whole phase rather than one stretch of it."""
        inputs, driver, facade = self.inputs, self.driver, self.facade
        self.search_bytes_read = 0
        singles = np.array_split(inputs.single_rows, READ_ROUNDS)
        batches = np.array_split(inputs.batch_rows, READ_ROUNDS)
        for round_ in range(READ_ROUNDS):
            bytes_before = self.target.counters()["bytes_read"]
            for row in singles[round_]:
                response, elapsed = driver.call(
                    "op.search", facade.query, self.single(row)
                )
                self.search_s.append(elapsed)
                if response is not None:
                    self.sim_us.append(response.latency_us)
                    self.probed += response.postings_probed
                    self.scanned += response.entries_scanned
                    self.reranked += response.reranked_entries
                    self.returned += len(response.ids)
            self.search_bytes_read += (
                self.target.counters()["bytes_read"] - bytes_before
            )
            for rows in batches[round_]:
                _, elapsed = driver.call("op.batch", facade.query, self.batch(rows))
                self.batch_s.append(elapsed)
            self.serve(*inputs.traces[round_])
        # At the unsaturated rate a shed or late request is a failure; the
        # sheds at the overload rate are admission control doing its job
        # and show up in sim_goodput_qps and serving.shed_frac instead.
        rates = sorted(self.reports)
        for report in self.reports[rates[0]]:
            for outcome in report.outcomes:
                self.oracle.check(
                    outcome.status == "answered" and outcome.e2e_us <= report.slo_us,
                    f"request {outcome.index} shed or past SLO below capacity",
                )
        self.oracle.attempted += sum(
            len(r.outcomes) for rate in rates[1:] for r in self.reports[rate]
        )
        # Memory is read here: from now on it follows how many superseded
        # blocks the split cascades leave behind, which swings by a quarter
        # from seed to seed (host.rss_end_mb has the end-of-run reading).
        self.rss_after_reads_mb = peak_rss_mb()

    def serve(self, rate, arrival_us, tenant, rows) -> None:
        frontend = ServingFrontend.from_config(
            self.facade,
            self.target.config,
            k=K,
            nprobe=self.spec.nprobe,
            num_workers=SERVE_WORKERS,
        )
        if self.tracer is not None:
            frontend.run = self.tracer.wrap("serving.run", frontend.run)
        arrivals = ArrivalTrace(
            name=f"bursty-{int(rate)}",
            arrival_us=arrival_us,
            tenant=tenant,
            query_index=rows,
            queries=self.inputs.queries,
        )
        report, elapsed = self.driver.call("op.serve", frontend.run, arrivals)
        # Oracle: every trace request has exactly one outcome.
        if self.oracle.check(
            report is not None
            and sorted(o.index for o in report.outcomes)
            == list(range(len(arrival_us)))
            and all(o.status in ("answered", "shed") for o in report.outcomes),
            f"trace at {rate} qps lost or duplicated a request",
        ):
            self.serve_s.setdefault(rate, []).append(elapsed)
            self.reports.setdefault(rate, []).append(report)

    def parity_check(self) -> None:
        """Oracle: a 32-row batch answers exactly what 32 singles answer."""
        rows_all, call = self.inputs.parity_rows, self.driver.call
        for start in range(0, len(rows_all), BATCH_ROWS):
            rows = rows_all[start : start + BATCH_ROWS]
            batch, _ = call("op.check", self.facade.query, self.batch(rows))
            for row, got in zip(rows, batch or ()):
                want, _ = call("op.check", self.facade.query, self.single(row))
                self.oracle.check(
                    want is not None
                    and np.array_equal(got.ids, want.ids)
                    and np.array_equal(got.distances, want.distances),
                    f"batch row differs from single query for pool row {row}",
                )

    def update_stream(self) -> None:
        """Inserts and deletes with interleaved queries; each of the
        ``RECOVERY_CYCLES`` segments ends checkpoint -> tail -> crash."""
        inputs, spec, driver, oracle = self.inputs, self.spec, self.driver, self.oracle
        live, deleted = self.live, self.deleted
        n = len(inputs.update_kind)
        tail = max(10, n // 40)
        crash_at = {(c + 1) * n // RECOVERY_CYCLES for c in range(RECOVERY_CYCLES)}
        checkpoint_at = {point - tail for point in crash_at}
        churn = iter(inputs.churn_rows)
        last_insert = None
        for i in range(n):
            vid = int(inputs.update_id[i])
            if inputs.update_kind[i] == 0:
                vector = inputs.update_vectors[i]
                _, elapsed = driver.call("op.update", self.facade.insert, vid, vector)
                live[vid] = vector
                self.inserted_bytes += vector.nbytes
                last_insert = vid
            else:
                _, elapsed = driver.call("op.update", self.facade.delete, vid)
                del live[vid]
                deleted.add(vid)
            self.update_s.append(elapsed)
            if i % spec.query_every == spec.query_every - 1:
                # Alternate pool queries with "find the vector just inserted".
                own = len(self.churn_s) % 2 == 1 and last_insert in live
                request = (
                    QueryRequest.single(live[last_insert], k=K, nprobe=spec.nprobe)
                    if own
                    else self.single(next(churn))
                )
                response, elapsed = driver.call(
                    "op.search", self.facade.query, request
                )
                self.churn_s.append(elapsed)
                if response is not None:
                    self.sim_us.append(response.latency_us)
                    ids = response.ids.tolist()
                    oracle.check(
                        deleted.isdisjoint(ids), "search returned a deleted id"
                    )
                    if own:
                        oracle.check(
                            bool(ids) and ids[0] == last_insert,
                            f"vector {last_insert} is not its own top-1",
                        )
            if i + 1 in checkpoint_at:
                self.checkpoint()
            if i + 1 in crash_at:
                self.bank()
                self.crash_and_recover()
                self.since = self.target.counters()  # replay is recovery's work
        self.free_blocks = sum(
            index.controller.free_block_count for index in self.target.indexes()
        )
        if self.target.wal is not None:
            self.wal_bytes += self.target.wal.size_bytes()  # the last tail

    def checkpoint(self) -> None:
        # Space is read here, where no superseded block is still held back
        # for the previous snapshot.
        if self.spec.facade == "cluster":
            self.space_amp = self.target.used_bytes() / self.live_bytes()
            return
        self.wal_bytes += self.target.wal.size_bytes()
        self.driver.call("op.checkpoint", self.facade.checkpoint)
        self.snapshot_bytes = len(self.target.snapshots.export_blob())
        self.checkpoints += 1
        self.space_amp = self.target.used_bytes() / self.live_bytes()

    def live_bytes(self) -> int:
        return len(self.live) * self.spec.dim * 4

    def crash_and_recover(self) -> None:
        target, facade = self.target, self.facade
        reads_before = target.survivor_block_reads()
        if self.spec.facade == "cluster":

            def recover():
                # The cluster's crash: replica 1 of every shard is lost and
                # resynced in full from its peer.
                for group in facade.groups:
                    facade.fail_replica(group.shard_id, 1)
                    facade.recover_replica(group.shard_id, 1)
                return facade

        else:

            def recover():
                # Only device, log and snapshot survive the crash.
                return SPFreshIndex.recover(
                    facade.ssd, target.config, target.snapshots, target.wal
                )

        recovered, elapsed = self.driver.call("op.recover", recover)
        if recovered is None:
            self.acked_lost += len(self.live)
            return
        self.recovery_s.append(elapsed)
        self.facade = target.facade = recovered
        if self.tracer is not None:
            instrument(self.tracer, recovered)
        if self.spec.facade == "index":
            self.replayed += recovered.last_recovery.records_replayed
        self.recovery_block_reads += target.survivor_block_reads() - reads_before
        # Oracle: the recovered live set is exactly the acknowledged one.
        alive = target.live_ids()
        lost, extra = self.live.keys() - alive, alive - self.live.keys()
        self.acked_lost += len(lost)
        self.oracle.check(not lost, f"{len(lost)} acked writes lost after recovery")
        self.oracle.check(not extra, f"{len(extra)} deleted ids alive after recovery")

    def recall_and_audit(self) -> None:
        rows = self.inputs.recall_rows
        live_ids = np.fromiter(self.live, dtype=np.int64, count=len(self.live))
        live_matrix = np.stack([self.live[int(i)] for i in live_ids])
        truth = exact_knn(self.inputs.queries[rows], live_ids, live_matrix)
        hits = 0
        for row, want in zip(rows, truth):
            response, _ = self.driver.call(
                "op.check", self.facade.query, self.single(row)
            )
            if response is not None:
                hits += len(set(response.ids.tolist()) & set(want.tolist()))
        self.recall = hits / (K * len(rows))
        self.oracle.check(
            self.recall >= self.spec.recall_floor,
            f"recall@{K} {self.recall:.4f} under the floor {self.spec.recall_floor}",
        )
        audit, _ = self.driver.call("op.check", self.facade.check_invariants)
        failures = ["audit raised"] if audit is None else audit_failures(audit)
        self.oracle.check(not failures, f"invariants after recovery: {failures}")

    # ------------------------------------------------------------ metrics
    def end_to_end(self) -> dict:
        rates = sorted(self.reports)
        under, over = self.reports[rates[0]], self.reports[rates[-1]]
        per_segment = len(under[0].outcomes)
        good = sum(
            1
            for report in over
            for o in report.outcomes
            if o.status == "answered" and o.e2e_us <= report.slo_us
        )
        return {
            "setup_s": statistics.median(self.setup_s),
            "search_p50_us": min(np.median(c) for c in chunked(self.search_s)) * 1e6,
            "search_qps": max(len(c) / c.sum() for c in chunked(self.search_s)),
            "batch_search_qps": max(
                len(c) * BATCH_ROWS / c.sum() for c in chunked(self.batch_s, least=6)
            ),
            "churn_search_p50_us": min(np.median(c) for c in chunked(self.churn_s))
            * 1e6,
            "update_p50_us": min(np.median(c) for c in chunked(self.update_s)) * 1e6,
            "recall_at_10": self.recall,
            "sim_search_p99_us": float(np.percentile(self.sim_us, 99)),
            "space_amp": self.space_amp,
            "recovery_s": min(self.recovery_s),
            "peak_rss_mb": self.rss_after_reads_mb,
            # One segment per rate, each at its quietest repetition.
            "serve_wall_rps": per_segment
            * len(rates)
            / sum(min(self.serve_s[rate]) for rate in rates),
            "sim_goodput_qps": good / sum(r.makespan_us / 1e6 for r in over),
            "sim_serve_p99_us": float(
                np.percentile([o.e2e_us for r in under for o in r.answered], 99)
            ),
        }

    def per_layer(self, wall_s: float, cpu_s: float, calib_ms: float) -> dict:
        tracer, counts = self.tracer, self.counts
        spans = SpanSummary(tracer)
        op_s = spans.op_s

        def frac(seconds: float) -> float:
            return seconds / op_s

        def mean(values) -> float:
            return float(np.mean(values)) if len(values) else 0.0

        reports = [r for rate in sorted(self.reports) for r in self.reports[rate]]
        answered = [o for r in reports for o in r.answered]
        batches = [b for r in reports for b in r.batches]
        requests = sum(len(r.outcomes) for r in reports)
        busy = [
            b / r.makespan_us
            for r in reports
            if r.makespan_us > 0
            for b in r.worker_busy_us()
        ]
        n_single = len(self.search_s)
        reads = spans.layer_self("controller", CONTROLLER_READS)
        read_calls = spans.layer_calls("controller", CONTROLLER_READS)
        # Driver and facade glue that no layer owns. op.recover's own time
        # is the recovery layer: the recovered index is a new object, so
        # its replay runs before it can be instrumented.
        glue_s = (
            sum(
                v
                for name, v in spans.self_s.items()
                if name.startswith("op.") and name != "op.recover"
            )
            + spans.self_s["index.query"]
            + spans.self_s["cluster.shard"]
        )
        serving_s, serving_self = (
            spans.total_s["serving.run"],
            spans.self_s["serving.run"],
        )
        return {
            "host.wall_s": wall_s,
            "host.cpu_s": cpu_s,
            "host.op_s": op_s,
            "host.calib_ms": calib_ms,
            "host.rss_end_mb": peak_rss_mb(),
            "host.search_p99_us": float(np.percentile(self.search_s, 99)) * 1e6,
            "host.churn_search_p99_us": float(np.percentile(self.churn_s, 99)) * 1e6,
            "host.update_p99_us": float(np.percentile(self.update_s, 99)) * 1e6,
            "host.update_p999_us": float(np.percentile(self.update_s, 99.9)) * 1e6,
            "host.update_ops_per_s": len(self.update_s) / sum(self.update_s),
            "centroids.calls": spans.layer_calls("centroids"),
            "centroids.self_frac": frac(spans.layer_self("centroids")),
            "centroids.count": self.facade.num_postings,
            "searcher.calls": spans.layer_calls("searcher"),
            "searcher.self_frac": frac(spans.layer_self("searcher")),
            "searcher.postings_probed_mean": self.probed / n_single,
            "searcher.entries_scanned_mean": self.scanned / n_single,
            "searcher.reranked_mean": self.reranked / n_single,
            "searcher.rows_per_result": self.scanned / max(self.returned, 1),
            **{f"searcher.stage_{s}_frac": frac(counts[s]) for s in STAGES},
            "controller.read_calls": read_calls,
            "controller.write_calls": spans.layer_calls("controller") - read_calls,
            "controller.read_self_frac": frac(reads),
            "controller.write_self_frac": frac(spans.layer_self("controller") - reads),
            "controller.free_blocks_end": self.free_blocks,
            "layout.encode_calls": spans.calls_starting("layout.encode"),
            "layout.decode_calls": spans.calls_starting("layout.decode"),
            "layout.self_frac": frac(spans.layer_self("layout")),
            "ssd.read_ops": counts["read_ops"],
            "ssd.write_ops": counts["write_ops"],
            "ssd.block_reads": counts["block_reads"],
            "ssd.block_writes": counts["block_writes"],
            "ssd.bytes_read": counts["bytes_read"],
            "ssd.bytes_written": counts["bytes_written"],
            "ssd.sim_busy_us": counts["busy_us"],
            "ssd.self_frac": frac(spans.layer_self("ssd")),
            "ssd.read_amp": self.search_bytes_read
            / max(self.scanned * self.spec.dim * 4, 1),
            "ssd.write_amp": counts["bytes_written"] / self.inserted_bytes,
            "wal.appends": spans.layer_calls("wal"),
            "wal.bytes": self.wal_bytes,
            "wal.self_frac": frac(spans.layer_self("wal")),
            "snapshot.checkpoints": self.checkpoints,
            "snapshot.bytes": self.snapshot_bytes,
            "snapshot.self_frac": frac(spans.layer_self("snapshot")),
            "updater.inserts": counts["inserts"],
            "updater.deletes": counts["deletes"],
            "updater.self_frac": frac(spans.layer_self("updater")),
            "rebuilder.jobs": spans.calls["rebuilder.process"],
            "rebuilder.self_frac": frac(spans.layer_self("rebuilder")),
            "rebuilder.stall_frac": frac(
                spans.total_by_op[("rebuilder.drain", "op.update")]
            ),
            "rebuilder.splits": counts["splits"],
            "rebuilder.merges": counts["merges"],
            "rebuilder.reassign_evaluated": counts["reassign_evaluated"],
            "rebuilder.reassign_executed": counts["reassign_executed"],
            "rebuilder.reassign_useful_frac": counts["reassign_executed"]
            / max(counts["reassign_evaluated"], 1),
            "rebuilder.cascade_max_depth": counts["cascade_max_depth"],
            "rebuilder.gc_writebacks": counts["gc_writebacks"],
            "version_map.live_mask_calls": spans.calls["version_map.live_mask"],
            "version_map.self_frac": frac(spans.layer_self("version_map")),
            "fresh_tier.adds": spans.calls["fresh_tier.add"],
            "fresh_tier.snapshots": spans.calls["fresh_tier.live_snapshot"],
            "fresh_tier.self_frac": frac(spans.layer_self("fresh_tier")),
            "fresh_tier.flushes": counts["fresh_flushes"],
            "fresh_tier.flushed_vectors": counts["fresh_flushed_vectors"],
            "fresh_tier.appends_per_flush": counts["fresh_flush_appends"]
            / max(counts["fresh_flushes"], 1),
            "quantize.tables_calls": spans.calls["quantize.distance_tables"],
            "quantize.encode_rows": tracer.rows["quantize.encode"],
            "quantize.self_frac": frac(spans.layer_self("quantize")),
            "recovery.self_frac": frac(spans.self_s["op.recover"]),
            "recovery.wal_records_replayed": self.replayed,
            "recovery.block_reads": self.recovery_block_reads,
            "recovery.acked_lost": self.acked_lost,
            "cluster.query_calls": spans.calls["cluster.query"],
            "cluster.route_self_frac": frac(spans.self_s["cluster.shards_for_queries"]),
            "cluster.shard_frac": frac(spans.total_s["cluster.shard"]),
            "cluster.merge_self_frac": frac(spans.self_s["cluster.query"]),
            "cluster.shards_probed_frac": (
                self.facade.shards_probed_fraction()
                if self.spec.facade == "cluster"
                else 0.0
            ),
            "serving.loop_self_frac": frac(serving_self),
            "serving.engine_frac": frac(serving_s - serving_self),
            "serving.batches": len(batches),
            "serving.batch_size_mean": mean([b.size for b in batches]),
            "serving.shed_frac": 1.0 - len(answered) / requests,
            "serving.sim_queue_wait_us_mean": mean([o.queue_wait_us for o in answered]),
            "serving.sim_assembly_wait_us_mean": mean(
                [o.assembly_wait_us for o in answered]
            ),
            "serving.sim_engine_us_mean": mean([o.engine_us for o in answered]),
            "serving.sim_worker_busy_frac_mean": mean(busy),
            "build.s": self.setup_s[-1],
            "build.postings": self.build_postings,
            "build.splits": self.build["splits"],
            "build.reassign_executed": self.build["reassign_executed"],
            "build.index_mem_mb": self.index_mem_mb,
            "trace.spans": spans.count,
            "trace.overhead_frac": spans.count * tracer.span_cost_s() / op_s,
            "trace.unaccounted_frac": glue_s / op_s,
        }


def run_workload(
    spec: Spec, inputs: Inputs, trace: bool, setup_repeats: int, spans_path=None
) -> dict:
    """Run every phase once; returns metrics, counts and oracle verdict."""
    run = Run(spec, inputs, trace)
    calib_before = calibration_ms()
    run.set_up(setup_repeats)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    run.read_rounds()
    run.parity_check()
    run.update_stream()
    run.recall_and_audit()
    run.bank()
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    calib_ms = (calib_before + calibration_ms()) / 2
    for note in run.oracle.notes:
        print(f"  FAIL {note}", file=sys.stderr)
    result = {
        "attempted": run.oracle.attempted,
        "failed": run.oracle.failed,
        "correct": run.oracle.failed == 0,
        "end_to_end": run.end_to_end(),
        "per_layer": None,
    }
    if trace:
        result["per_layer"] = run.per_layer(wall_s, cpu_s, calib_ms)
        if spans_path is not None:
            run.tracer.write_jsonl(spans_path)
    return result
