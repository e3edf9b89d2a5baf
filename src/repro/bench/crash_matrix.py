"""Crash-at-every-point recovery matrix (durability contract audit).

The recovery story (paper §4.4) claims that after a crash, snapshot + WAL
replay restore every acknowledged update. This harness tests that claim at
*every* point a crash can physically happen, not just clean shutdowns:

1. Build a small index, checkpoint it, and capture the durable state
   (device blocks, snapshot blob) as the trial starting line.
2. Run a seeded insert/delete/checkpoint workload once fault-free through
   a device that numbers its ops
   (:attr:`~repro.storage.ssd.SimulatedSSD.op_index`) to enumerate the
   crashable operations: every device op (reads, writes, trims), every
   WAL append (torn at two byte offsets), and every snapshot boundary
   (torn temp file, crash before / after the atomic rename).
3. For each crash point, restart from the captured state, replay the
   workload until the injected :class:`~repro.util.errors.CrashPoint`
   fires, then recover into a fresh index object — the moral equivalent
   of a process restart — and audit:

   * ``check_invariants()`` passes (conservation, size bounds, mapping
     coherence, sampled NPA);
   * every **acknowledged** update is durable: acked inserts have a live
     replica, acked deletes stay dead; only the single in-flight op may
     go either way;
   * top-k self-recall against a brute-force oracle over the surviving
     vectors is 1.0.

Determinism: the workload, the fault plan, and every audit sample derive
from ``seed``, so a failing crash point reruns identically.

Run from the CLI::

    PYTHONPATH=src python -m repro.bench.crash_matrix --device-stride 4
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api import QueryRequest
from repro.core.config import SPFreshConfig
from repro.core.index import SPFreshIndex
from repro.spann.postings import live_view
from repro.storage.faults import FaultPlan
from repro.storage.snapshot import SnapshotManager
from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.storage.wal import WriteAheadLog
from repro.util.errors import CrashPoint


@dataclass
class CrashMatrixConfig:
    """Knobs of one matrix sweep; everything downstream of ``seed``."""

    dim: int = 8
    initial_vectors: int = 96
    updates: int = 110
    delete_every: int = 5  # every Nth workload op is a delete
    checkpoint_every: int = 40  # a checkpoint lands every Nth workload op
    hot_fraction: float = 0.6  # inserts aimed at one blob, forcing splits
    seed: int = 0
    device_stride: int = 1  # crash at every Nth device op
    wal_stride: int = 4  # tear every Nth WAL append
    max_device_points: int | None = None
    search_checks: int = 4  # oracle recall probes per trial
    search_k: int = 5
    # Fresh-tier mode: inserts buffer in RAM and reach disk via batched
    # flushes (docs/fresh-tier.md), so the durability contract leans
    # entirely on the WAL. Every device op inside a flush span is crashed
    # explicitly (on top of the stride) to prove acked-but-unflushed
    # inserts survive a crash at any point of the tier drain.
    fresh_tier: bool = False
    fresh_flush_threshold: int = 10
    flush_stride: int = 1  # crash at every Nth device op inside a flush

    def index_config(self) -> SPFreshConfig:
        return SPFreshConfig(
            dim=self.dim,
            max_posting_size=24,
            min_posting_size=2,
            build_target_posting_size=12,
            block_size=512,
            ssd_blocks=1 << 12,
            reassign_range=6,
            seed=self.seed,
            centroid_index_kind="brute",
            enable_fresh_tier=self.fresh_tier,
            fresh_flush_threshold=self.fresh_flush_threshold,
        )


@dataclass(frozen=True)
class _Op:
    kind: str  # "insert" | "delete" | "checkpoint"
    vector_id: int = -1
    vector: np.ndarray | None = None


@dataclass
class _BaseState:
    """The durable starting line every trial restarts from."""

    blocks: dict[int, bytes]
    snapshot_blob: bytes
    base_live: dict[int, np.ndarray]


@dataclass
class _CleanRunInfo:
    """Operation census from the fault-free pass: what can crash, where."""

    total_device_ops: int = 0
    # (first device op, one-past-last device op, phase) per workload op
    spans: list[tuple[int, int, str]] = field(default_factory=list)
    # lifetime WAL append index per workload op (-1 for checkpoints)
    wal_index: list[int] = field(default_factory=list)
    # (workload op position, snapshot generation) per checkpoint
    checkpoints: list[tuple[int, int]] = field(default_factory=list)

    def phase_of(self, device_op: int) -> str:
        for start, end, phase in self.spans:
            if start <= device_op < end:
                return phase
        return "idle"


@dataclass
class CrashTrial:
    """One crash point: where it fired and what the audit found."""

    label: str
    phase: str
    crashed: bool = False
    acked_ops: int = 0
    recall: float = 1.0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class CrashMatrixReport:
    """Aggregate of a full sweep."""

    config: CrashMatrixConfig
    trials: list[CrashTrial] = field(default_factory=list)
    device_ops: int = 0

    @property
    def num_points(self) -> int:
        return len(self.trials)

    @property
    def failed_trials(self) -> list[CrashTrial]:
        return [t for t in self.trials if not t.ok]

    @property
    def ok(self) -> bool:
        return not self.failed_trials

    def phase_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for trial in self.trials:
            counts[trial.phase] = counts.get(trial.phase, 0) + 1
        return counts

    def summary(self) -> str:
        state = "OK" if self.ok else "FAIL"
        phases = ", ".join(
            f"{phase}:{count}" for phase, count in sorted(self.phase_counts().items())
        )
        lines = [
            f"crash matrix seed={self.config.seed}: {state} — "
            f"{self.num_points} crash points over {self.device_ops} device ops",
            f"  phases: {phases}",
        ]
        for trial in self.failed_trials[:5]:
            lines.append(f"  FAIL {trial.label} ({trial.phase}): {trial.failures[:2]}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# workload and base-state construction
# ----------------------------------------------------------------------
def _make_workload(config: CrashMatrixConfig) -> tuple[np.ndarray, list[_Op]]:
    rng = np.random.default_rng(config.seed)
    centers = rng.normal(scale=6.0, size=(4, config.dim)).astype(np.float32)
    assignment = rng.integers(0, 4, size=config.initial_vectors)
    base = (
        centers[assignment]
        + rng.normal(scale=0.5, size=(config.initial_vectors, config.dim))
    ).astype(np.float32)

    ops: list[_Op] = []
    deletable = list(range(config.initial_vectors))
    next_vid = 100_000
    for i in range(config.updates):
        if config.checkpoint_every and i > 0 and i % config.checkpoint_every == 0:
            ops.append(_Op("checkpoint"))
        if (
            config.delete_every
            and i % config.delete_every == config.delete_every - 1
            and deletable
        ):
            vid = deletable.pop(int(rng.integers(len(deletable))))
            ops.append(_Op("delete", vid))
        else:
            hot = rng.random() < config.hot_fraction
            center = centers[0] if hot else centers[int(rng.integers(1, 4))]
            vec = (center + rng.normal(scale=0.4, size=config.dim)).astype(np.float32)
            ops.append(_Op("insert", next_vid, vec))
            deletable.append(next_vid)
            next_vid += 1
    return base, ops


def _profile(icfg: SPFreshConfig) -> SSDProfile:
    return SSDProfile(
        block_size=icfg.block_size,
        read_latency_us=icfg.read_latency_us,
        write_latency_us=icfg.write_latency_us,
        queue_depth=icfg.queue_depth,
    )


def _build_base(config: CrashMatrixConfig) -> tuple[_BaseState, list[_Op]]:
    base_vectors, ops = _make_workload(config)
    icfg = config.index_config()
    ssd = SimulatedSSD(icfg.ssd_blocks, _profile(icfg))
    wal = WriteAheadLog()
    snapshots = SnapshotManager()
    index = SPFreshIndex.build(
        base_vectors, config=icfg, wal=wal, snapshots=snapshots, device=ssd
    )
    index.checkpoint()
    blob = snapshots.export_blob()
    assert blob is not None
    base = _BaseState(
        blocks=ssd.export_blocks(),
        snapshot_blob=blob,
        base_live={vid: base_vectors[vid] for vid in range(len(base_vectors))},
    )
    return base, ops


# ----------------------------------------------------------------------
# trial execution
# ----------------------------------------------------------------------
def _live_ids(index: SPFreshIndex) -> set[int]:
    """Vector ids with a live replica on disk or buffered in the fresh tier.

    After a fresh-tier recovery, WAL replay legitimately lands acked
    inserts back in the memory tier rather than in a posting; they count
    as durable because the (replayed) WAL still holds them.
    """
    out: set[int] = set()
    for pid in index.controller.posting_ids():
        data, _ = index.controller.get(pid)
        live = live_view(data, index.version_map)
        out.update(int(v) for v in live.ids)
    if index.fresh_tier is not None and len(index.fresh_tier) > 0:
        tier_ids, _ = index.fresh_tier.live_snapshot()
        out.update(int(v) for v in tier_ids)
    return out


def _brute_force_topk(
    vectors_by_vid: dict[int, np.ndarray], candidates: list[int], query: np.ndarray, k: int
) -> list[int]:
    matrix = np.stack([vectors_by_vid[vid] for vid in candidates])
    dists = ((matrix - query) ** 2).sum(axis=1)
    order = np.argsort(dists, kind="stable")
    return [candidates[int(i)] for i in order[:k]]


def _run_trial(
    base: _BaseState,
    ops: list[_Op],
    config: CrashMatrixConfig,
    plan: FaultPlan | None,
    trial: CrashTrial,
    collect: _CleanRunInfo | None = None,
) -> None:
    icfg = config.index_config()
    device = SimulatedSSD(icfg.ssd_blocks, _profile(icfg), faults=plan)
    device.import_blocks(base.blocks)
    wal = WriteAheadLog(faults=plan)
    snapshots = SnapshotManager(faults=plan)
    snapshots.import_blob(base.snapshot_blob)

    index = SPFreshIndex.recover(device, icfg, snapshots, wal=wal)

    expected_live: dict[int, np.ndarray] = dict(base.base_live)
    vectors_by_vid: dict[int, np.ndarray] = dict(base.base_live)
    inflight: _Op | None = None
    wal_appends = 0
    for position, op in enumerate(ops):
        inflight = op
        if op.vector is not None:
            vectors_by_vid[op.vector_id] = op.vector
        op_start = device.op_index
        splits_before = index.stats.splits
        flushes_before = index.stats.fresh_flushes
        if collect is not None:
            collect.wal_index.append(wal_appends if op.kind != "checkpoint" else -1)
        try:
            if op.kind == "insert":
                index.insert(op.vector_id, op.vector)
            elif op.kind == "delete":
                index.delete(op.vector_id)
            else:
                generation = index.checkpoint()
                if collect is not None:
                    collect.checkpoints.append((position, generation))
        except CrashPoint:
            trial.crashed = True
            break
        # Acknowledged: this update is now part of the durability contract.
        if op.kind == "insert":
            expected_live[op.vector_id] = op.vector
            wal_appends += 1
        elif op.kind == "delete":
            expected_live.pop(op.vector_id, None)
            wal_appends += 1
        inflight = None
        trial.acked_ops += 1
        if collect is not None:
            phase = op.kind
            if op.kind == "insert" and index.stats.fresh_flushes > flushes_before:
                # A threshold flush drained inside this insert: its device
                # ops are the batched tier → posting appends.
                phase = "flush"
            elif op.kind == "insert" and index.stats.splits > splits_before:
                phase = "split"
            elif op.kind == "checkpoint":
                phase = "snapshot"
            collect.spans.append((op_start, device.op_index, phase))
    if collect is not None:
        collect.total_device_ops = device.op_index

    # ------------------------------------------------------------------
    # "process restart": drop the index object, recover from durable state
    # ------------------------------------------------------------------
    if plan is not None:
        plan.disarm()
    recovered = SPFreshIndex.recover(device, icfg, snapshots, wal=wal)
    _audit(recovered, expected_live, vectors_by_vid, inflight, config, trial)


def _audit(
    recovered: SPFreshIndex,
    expected_live: dict[int, np.ndarray],
    vectors_by_vid: dict[int, np.ndarray],
    inflight: _Op | None,
    config: CrashMatrixConfig,
    trial: CrashTrial,
) -> None:
    report = recovered.check_invariants(seed=config.seed)
    if not report.ok:
        trial.failures.extend(f"invariant: {f}" for f in report.failures)

    present = _live_ids(recovered)
    must_have = set(expected_live)
    allowed_either_way: set[int] = set()
    if inflight is not None and inflight.kind in ("insert", "delete"):
        # The one un-acked op may have reached the WAL before the crash
        # (replayed → applied) or not (dropped); both outcomes honor the
        # contract, which only covers acknowledged updates.
        allowed_either_way.add(inflight.vector_id)
        must_have.discard(inflight.vector_id)

    lost = sorted(must_have - present)
    ghosts = sorted(present - set(expected_live) - allowed_either_way)
    if lost:
        trial.failures.append(f"lost acked vectors: {lost[:10]}")
    if ghosts:
        trial.failures.append(f"ghost vectors: {ghosts[:10]}")

    # Oracle recall over the survivors: full-breadth search must agree
    # exactly with brute force on what the index actually holds.
    survivors = sorted(present)
    if not survivors or config.search_checks <= 0:
        return
    rng = np.random.default_rng(config.seed + 31)
    picks = rng.choice(
        len(survivors), size=min(config.search_checks, len(survivors)), replace=False
    )
    k = min(config.search_k, len(survivors))
    worst = 1.0
    for pick in picks:
        vid = survivors[int(pick)]
        query = vectors_by_vid[vid]
        want = set(_brute_force_topk(vectors_by_vid, survivors, query, k))
        result = recovered.query(
            QueryRequest.single(query, k=k, nprobe=recovered.num_postings)
        ).result
        got = set(int(i) for i in result.ids)
        recall = len(want & got) / k
        worst = min(worst, recall)
        if recall < 1.0:
            trial.failures.append(
                f"oracle recall {recall:.2f} for query vid {vid}: "
                f"missing {sorted(want - got)[:5]}"
            )
    trial.recall = worst


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def run_crash_matrix(config: CrashMatrixConfig | None = None) -> CrashMatrixReport:
    """Sweep every crash point of the seeded workload and audit recovery."""
    config = config or CrashMatrixConfig()
    report = CrashMatrixReport(config=config)
    base, ops = _build_base(config)

    # Fault-free census pass: enumerates device ops, WAL appends, and
    # checkpoint generations — and doubles as the zero-fault control trial.
    census = _CleanRunInfo()
    control = CrashTrial(label="control", phase="none")
    _run_trial(base, ops, config, None, control, collect=census)
    report.trials.append(control)
    report.device_ops = census.total_device_ops

    # 1. Crash at every Nth device operation. In fresh-tier mode every
    # device op inside a flush span is added explicitly (deduplicated
    # against the stride) so flush interiors get full coverage even under
    # the reduced strides the CI lane uses.
    device_points = list(range(0, census.total_device_ops, config.device_stride))
    if config.fresh_tier:
        covered = set(device_points)
        for start, end, phase in census.spans:
            if phase == "flush":
                covered.update(range(start, end, max(config.flush_stride, 1)))
        device_points = sorted(covered)
    if config.max_device_points is not None:
        device_points = device_points[: config.max_device_points]
    for crash_op in device_points:
        trial = CrashTrial(
            label=f"device-op-{crash_op}", phase=census.phase_of(crash_op)
        )
        plan = FaultPlan(config.seed, crash_at_op=crash_op)
        _run_trial(base, ops, config, plan, trial)
        report.trials.append(trial)

    # 2. Tear every Nth WAL append, at byte 0 and mid-frame.
    wal_ops = [
        (position, wal_idx)
        for position, wal_idx in enumerate(census.wal_index)
        if wal_idx >= 0
    ]
    for position, wal_idx in wal_ops[:: max(config.wal_stride, 1)]:
        for keep in (0, None):  # nothing durable / torn mid-frame
            where = "0" if keep == 0 else "mid"
            trial = CrashTrial(
                label=f"wal-tear-{wal_idx}@{where}", phase=ops[position].kind
            )
            plan = FaultPlan(config.seed, wal_tear_at=(wal_idx, keep))
            _run_trial(base, ops, config, plan, trial)
            report.trials.append(trial)

    # 3. Crash at every snapshot boundary of every mid-workload checkpoint.
    for _position, generation in census.checkpoints:
        for mode in ("torn-tmp", "crash-before-commit", "crash-after-commit"):
            trial = CrashTrial(
                label=f"snapshot-{mode}@gen{generation}", phase="snapshot"
            )
            plan = FaultPlan(
                config.seed,
                snapshot_fault=mode,
                snapshot_fault_generation=generation,
            )
            _run_trial(base, ops, config, plan, trial)
            report.trials.append(trial)

    return report


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--updates", type=int, default=110)
    parser.add_argument("--device-stride", type=int, default=1)
    parser.add_argument("--wal-stride", type=int, default=4)
    parser.add_argument("--max-device-points", type=int, default=None)
    parser.add_argument(
        "--fresh-tier",
        action="store_true",
        help="enable the LSM-style memory tier and crash inside flushes",
    )
    args = parser.parse_args(argv)
    report = run_crash_matrix(
        CrashMatrixConfig(
            seed=args.seed,
            updates=args.updates,
            device_stride=args.device_stride,
            wal_stride=args.wal_stride,
            max_device_points=args.max_device_points,
            fresh_tier=args.fresh_tier,
        )
    )
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
