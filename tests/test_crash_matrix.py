"""Crash-at-every-point recovery matrix + differential crash/resume oracle.

The fast tests sweep a reduced matrix on every CI run; the ``slow``-marked
full sweep is the acceptance gate for the durability contract: hundreds of
distinct crash points across insert/delete/split/snapshot phases with zero
invariant violations and zero lost acknowledged updates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.bench.crash_matrix import (
    CrashMatrixConfig,
    run_crash_matrix,
)
from repro.core.index import SPFreshIndex
from repro.storage import (
    FaultPlan,
    SimulatedSSD,
    SnapshotManager,
    SSDProfile,
    WriteAheadLog,
)
from repro.util.errors import CrashPoint, RecoveryError

from .helpers import brute_force_topk, live_assignment

DIM = 8


def small_crashy_index(plan=None, n=64, seed=3):
    """An index on a fault-injectable device, checkpointed once."""
    from repro.core.config import SPFreshConfig

    cfg = SPFreshConfig(
        dim=DIM,
        max_posting_size=24,
        min_posting_size=2,
        build_target_posting_size=12,
        block_size=512,
        ssd_blocks=1 << 12,
        reassign_range=6,
        seed=seed,
        centroid_index_kind="brute",
    )
    rng = np.random.default_rng(seed)
    vectors = rng.normal(scale=2.0, size=(n, DIM)).astype(np.float32)
    device = SimulatedSSD(
        cfg.ssd_blocks, SSDProfile(block_size=cfg.block_size), faults=plan
    )
    wal = WriteAheadLog(faults=plan)
    snapshots = SnapshotManager(faults=plan)
    index = SPFreshIndex.build(
        vectors, config=cfg, wal=wal, snapshots=snapshots, device=device
    )
    index.checkpoint()
    oracle = {vid: vectors[vid] for vid in range(n)}
    return index, device, wal, snapshots, cfg, oracle, rng


class TestCrashMatrixReduced:
    """Fast, CI-per-commit breadth."""

    def test_every_sampled_crash_point_recovers(self):
        report = run_crash_matrix(
            CrashMatrixConfig(
                updates=60,
                # ~200 device ops since reassigns land as grouped appends
                # (776 before): the stride shrank with the census.
                device_stride=10,
                wal_stride=16,
                search_checks=2,
            )
        )
        assert report.ok, report.summary()
        assert report.num_points >= 20
        # Every non-control trial must actually have crashed: the workload
        # is deterministic, so each planned fault fires exactly where the
        # census said it would.
        for trial in report.trials:
            if trial.label != "control":
                assert trial.crashed, f"{trial.label} never hit its crash point"
        phases = report.phase_counts()
        assert phases.get("insert", 0) + phases.get("split", 0) > 0
        assert phases.get("snapshot", 0) > 0

    def test_control_trial_is_fault_free(self):
        report = run_crash_matrix(
            CrashMatrixConfig(updates=30, device_stride=10_000, wal_stride=10_000)
        )
        control = report.trials[0]
        assert control.label == "control"
        assert not control.crashed
        assert control.ok
        assert control.recall == 1.0

    def test_matrix_is_deterministic(self):
        config = CrashMatrixConfig(updates=40, device_stride=64, wal_stride=32)
        first = run_crash_matrix(config)
        second = run_crash_matrix(config)
        assert [t.label for t in first.trials] == [t.label for t in second.trials]
        assert [t.acked_ops for t in first.trials] == [
            t.acked_ops for t in second.trials
        ]
        assert first.device_ops == second.device_ops


class TestCrashMatrixFreshTier:
    """Flush-boundary crash points: the tier's durability contract.

    With the memory tier enabled, acked inserts reach disk only through
    batched flushes, so the WAL is the sole durable record until a flush
    lands. Every sampled crash point inside a flush span must recover all
    acked inserts (possibly back into the tier) with invariants intact.
    """

    def test_flush_interior_crash_points_recover(self):
        report = run_crash_matrix(
            CrashMatrixConfig(
                updates=36,
                device_stride=10_000,  # stride covers op 0 only; the rest
                flush_stride=4,  # come from explicit flush interiors
                wal_stride=12,
                search_checks=2,
                fresh_tier=True,
                fresh_flush_threshold=8,
            )
        )
        assert report.ok, report.summary()
        phases = report.phase_counts()
        assert phases.get("flush", 0) >= 5, report.summary()
        # WAL tears during buffered inserts are enumerated too.
        assert phases.get("insert", 0) > 0
        for trial in report.trials:
            if trial.label != "control":
                assert trial.crashed, f"{trial.label} never hit its crash point"

    def test_fresh_matrix_is_deterministic(self):
        config = CrashMatrixConfig(
            updates=24,
            device_stride=10_000,
            flush_stride=9,
            wal_stride=24,
            search_checks=1,
            fresh_tier=True,
            fresh_flush_threshold=8,
        )
        first = run_crash_matrix(config)
        second = run_crash_matrix(config)
        assert [t.label for t in first.trials] == [t.label for t in second.trials]
        assert first.device_ops == second.device_ops


@pytest.mark.slow
class TestCrashMatrixFull:
    """Acceptance sweep: >=200 crash points, all phases, zero losses."""

    def test_full_sweep(self):
        report = run_crash_matrix(
            CrashMatrixConfig(device_stride=2, wal_stride=2)
        )
        assert report.ok, report.summary()
        assert report.num_points >= 200, report.summary()
        phases = report.phase_counts()
        for phase in ("insert", "split", "delete", "snapshot"):
            assert phases.get(phase, 0) > 0, f"no {phase}-phase crash points"


class TestSnapshotBoundaryFaults:
    def test_torn_tmp_preserves_previous_snapshot(self):
        plan = FaultPlan(snapshot_fault="torn-tmp")
        plan.disarm()
        index, device, wal, snapshots, cfg, oracle, rng = small_crashy_index(plan)
        vec = rng.normal(size=DIM).astype(np.float32)
        index.insert(1000, vec)
        oracle[1000] = vec
        plan.arm()
        with pytest.raises(CrashPoint):
            index.checkpoint()
        plan.disarm()
        recovered = SPFreshIndex.recover(device, cfg, snapshots, wal=wal)
        # The old snapshot survived the torn temp write; the WAL (never
        # truncated) replays the insert on top of it.
        assert recovered.last_recovery.snapshot_generation == 1
        assert set(live_assignment(recovered)) == set(oracle)
        assert recovered.check_invariants().ok

    def test_crash_after_commit_recovers_from_new_snapshot(self):
        plan = FaultPlan(snapshot_fault="crash-after-commit")
        plan.disarm()
        index, device, wal, snapshots, cfg, oracle, rng = small_crashy_index(plan)
        vec = rng.normal(size=DIM).astype(np.float32)
        index.insert(1000, vec)
        oracle[1000] = vec
        plan.arm()
        with pytest.raises(CrashPoint):
            index.checkpoint()
        plan.disarm()
        recovered = SPFreshIndex.recover(device, cfg, snapshots, wal=wal)
        # The rename landed before the crash, so recovery starts from the
        # new generation; the stale WAL replays as skips, not duplicates.
        assert recovered.last_recovery.snapshot_generation == 2
        assert set(live_assignment(recovered)) == set(oracle)
        assert recovered.check_invariants().ok

    def test_corrupt_published_snapshot_is_detected_never_loaded(self):
        plan = FaultPlan(snapshot_fault="corrupt-published")
        plan.disarm()
        index, device, wal, snapshots, cfg, oracle, rng = small_crashy_index(plan)
        plan.arm()
        index.checkpoint()  # "succeeds" — but publishes a torn blob
        plan.disarm()
        with pytest.raises(RecoveryError):
            SPFreshIndex.recover(device, cfg, snapshots, wal=wal)


class TestDifferentialCrashResumeOracle:
    """Satellite: N random crash/recover/resume cycles vs a brute-force oracle.

    One device lineage survives the whole test; each cycle arms a fresh
    crash point mid-workload, recovers, and then the *recovered* index keeps
    going. After every recovery: all acked vectors present, invariants hold,
    and top-k search recall against brute force over survivors is 1.0.
    """

    CYCLES = 5
    OPS_PER_CYCLE = 18

    def test_crash_recover_resume_cycles(self):
        plan = FaultPlan()
        plan.disarm()
        index, device, wal, snapshots, cfg, oracle, rng = small_crashy_index(plan)
        expected = dict(oracle)  # acked-live ledger
        known = dict(oracle)  # every vector ever seen (for oracle queries)
        next_vid = 10_000

        for cycle in range(self.CYCLES):
            crash_plan = FaultPlan(
                seed=cycle, crash_at_op=device.op_index + int(rng.integers(2, 30))
            )
            device.faults = crash_plan
            wal.faults = crash_plan
            snapshots.faults = crash_plan
            inflight = None
            crashed = False
            for i in range(self.OPS_PER_CYCLE):
                do_delete = expected and rng.random() < 0.25
                try:
                    if i == self.OPS_PER_CYCLE // 2 and cycle % 2 == 0:
                        inflight = None
                        index.checkpoint()
                    elif do_delete:
                        vid = int(rng.choice(sorted(expected)))
                        inflight = ("delete", vid, None)
                        index.delete(vid)
                        del expected[vid]
                    else:
                        vid, next_vid = next_vid, next_vid + 1  # never reuse
                        vec = rng.normal(size=DIM).astype(np.float32)
                        inflight = ("insert", vid, vec)
                        known[vid] = vec
                        index.insert(vid, vec)
                        expected[vid] = vec
                    inflight = None
                except CrashPoint:
                    crashed = True
                    break
            assert crashed, f"cycle {cycle}: crash point never fired"

            crash_plan.disarm()
            index = SPFreshIndex.recover(device, cfg, snapshots, wal=wal)
            assert index.check_invariants(seed=cycle).ok

            present = set(live_assignment(index))
            if inflight is not None:
                # The op the crash interrupted may have reached the WAL or
                # not; resolve the ledger by what recovery actually decided
                # — that outcome is durable (the WAL record, if any, will
                # replay the same way until a checkpoint truncates it).
                kind, vid, vec = inflight
                if kind == "insert" and vid in present:
                    expected[vid] = vec
                elif kind == "delete" and vid not in present:
                    expected.pop(vid, None)
            assert present == set(expected), (
                f"cycle {cycle}: lost {sorted(set(expected) - present)[:5]}, "
                f"ghosts {sorted(present - set(expected))[:5]}"
            )

            # Differential oracle: full-breadth search == brute force.
            survivors = {vid: known[vid] for vid in present}
            queries = rng.choice(sorted(present), size=3, replace=False)
            for vid in queries:
                k = min(5, len(survivors))
                want = set(brute_force_topk(survivors, known[int(vid)], k))
                result = index.query(
                    QueryRequest.single(known[int(vid)], k=k, nprobe=index.num_postings)
                ).result
                got = set(int(x) for x in result.ids)
                assert got == want, (
                    f"cycle {cycle}: query {vid} recall "
                    f"{len(got & want) / k:.2f} < 1.0"
                )
        assert index.stats.recoveries == 1  # each recovery built a fresh object
