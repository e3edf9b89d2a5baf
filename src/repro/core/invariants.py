"""Whole-index invariant checker for the LIRE pipeline.

The concurrent split/merge/reassign pipeline is only trustworthy if its
end state can be audited. :func:`check_invariants` sweeps the index once
and verifies the properties the paper's protocol promises after the job
queue drains:

* **conservation** — every live vector id in the version map has at least
  one on-disk replica stored at its *current* version (nothing lost, no
  ghosts in the map); with the fresh tier enabled, a current-version row
  buffered in the tier counts as that replica — vectors in flight between
  tier and postings (mid-flush) may legitimately appear in both places,
  but must appear in at least one;
* **tier hygiene** — the fresh tier holds no deleted or version-stale
  rows (deletes discard eagerly; flushes drop stale rows);
* **size bounds** — no posting exceeds ``max_posting_size`` (splits kept
  up with appends; only checked when splits are enabled and the queue is
  drained);
* **mapping coherence** — the Block Controller's posting table and the
  centroid index hold exactly the same posting ids (a split or merge that
  died halfway leaves an orphan on one side);
* **code coherence** — on quantized indexes, every posting's stored code
  column equals re-encoding its stored vectors (splits, merges, flushes,
  and GC all kept the compact codes fresh; encoding is deterministic so
  the comparison is exact);
* **sampled NPA** — for a random sample of live vectors, the posting of
  the nearest centroid contains a live copy (the nearest-partition
  assignment property, §3.3; boundary ties are tolerated).

The checker is read-only and takes no locks beyond the controller's own,
so it can run against a quiesced index (after ``stop()``/``drain()``) or,
best-effort, against a live one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.spann.postings import live_view
from repro.util.distance import sq_l2
from repro.util.errors import IndexError_, StalePostingError


class InvariantViolation(IndexError_):
    """check_invariants found a broken index-wide invariant."""


@dataclass
class InvariantReport:
    """Outcome of one :func:`check_invariants` sweep."""

    live_vectors: int = 0
    postings: int = 0
    lost_vectors: list[int] = field(default_factory=list)
    oversized_postings: list[tuple[int, int]] = field(default_factory=list)
    postings_without_centroid: list[int] = field(default_factory=list)
    centroids_without_posting: list[int] = field(default_factory=list)
    npa_checked: int = 0
    npa_violations: list[int] = field(default_factory=list)
    npa_allowance: int = 0
    fresh_tier_vectors: int = 0  # live rows buffered in the fresh tier
    stale_tier_entries: list[int] = field(default_factory=list)
    # Quantized indexes: postings whose stored code column differs from
    # re-encoding the stored vectors — (posting id, mismatching rows).
    # Encoding is deterministic, so any mismatch means a rewrite path
    # dropped code/vector coherence (docs/quantization.md).
    code_mismatches: list[tuple[int, int]] = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        """Human-readable description of every violated invariant."""
        out: list[str] = []
        if self.lost_vectors:
            out.append(
                f"{len(self.lost_vectors)} live vectors have no live replica "
                f"(e.g. {self.lost_vectors[:5]})"
            )
        if self.oversized_postings:
            out.append(
                f"{len(self.oversized_postings)} postings over the split "
                f"limit (e.g. {self.oversized_postings[:5]})"
            )
        if self.postings_without_centroid:
            out.append(
                f"postings without centroid: {self.postings_without_centroid[:5]}"
            )
        if self.centroids_without_posting:
            out.append(
                f"centroids without posting: {self.centroids_without_posting[:5]}"
            )
        if self.stale_tier_entries:
            out.append(
                f"{len(self.stale_tier_entries)} deleted/stale rows still "
                f"buffered in the fresh tier (e.g. {self.stale_tier_entries[:5]})"
            )
        if self.code_mismatches:
            out.append(
                f"{len(self.code_mismatches)} postings whose quantized codes "
                f"disagree with re-encoding their vectors "
                f"(e.g. {self.code_mismatches[:5]})"
            )
        if len(self.npa_violations) > self.npa_allowance:
            out.append(
                f"{len(self.npa_violations)}/{self.npa_checked} sampled "
                f"vectors violate NPA (allowance {self.npa_allowance}, "
                f"e.g. {self.npa_violations[:5]})"
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise InvariantViolation("; ".join(self.failures))


def _incoherent_codes(quantizer, vectors: np.ndarray, codes: np.ndarray) -> int:
    """Rows whose stored code quantizes the stored vector worse than
    re-encoding it would.

    Codes are not compared byte for byte: ``ProductQuantizer.encode``
    takes its argmin over GEMM-form distances whose last-bit rounding
    depends on how many rows are encoded together, so the write path and
    this audit may pick different codewords of a near tie. A row counts
    only when the stored code's quantization error exceeds the re-encoded
    one's by more than float32 rounding of the magnitudes involved.
    """
    expected = quantizer.encode(vectors)
    rows = np.nonzero(np.any(expected != codes, axis=1))[0]
    if len(rows) == 0:
        return 0
    exact = vectors[rows].astype(np.float64)
    stored_err = ((exact - quantizer.decode(codes[rows])) ** 2).sum(axis=1)
    expected_err = ((exact - quantizer.decode(expected[rows])) ** 2).sum(axis=1)
    slack = 1e-5 * ((exact**2).sum(axis=1) + stored_err)
    return int(np.count_nonzero(stored_err > expected_err + slack))


def check_invariants(
    index,
    *,
    npa_sample: int = 128,
    npa_tolerance: float = 1e-5,
    npa_allowance: int | None = None,
    check_size_bounds: bool = True,
    size_slack: int = 0,
    seed: int = 0,
) -> InvariantReport:
    """Audit ``index`` against the LIRE end-state invariants.

    ``npa_sample`` live vectors are NPA-checked (0 disables the check);
    ``npa_allowance`` is how many sampled violations are tolerated before
    the report fails — the default scales with the sample because reassign
    legitimately aborts a small number of moves (version races, boundary
    ties) that the next maintenance pass repairs. ``check_size_bounds``
    should be False when auditing a live index whose queue still holds
    split jobs. Returns an :class:`InvariantReport`; callers that want an
    exception use ``report.raise_if_failed()``.
    """
    report = InvariantReport()
    stats = getattr(index, "stats", None)
    if stats is not None:
        stats.incr("invariant_checks")

    live_ids = index.version_map.live_ids()
    report.live_vectors = len(live_ids)
    rng = np.random.default_rng(seed)
    if npa_sample and len(live_ids):
        take = min(npa_sample, len(live_ids))
        sampled = set(
            int(v) for v in rng.choice(live_ids, size=take, replace=False)
        )
    else:
        sampled = set()

    # Single sweep over every posting: collect which postings hold a live
    # replica of each vector, vectors' raw data for the NPA sample, and
    # per-posting length / centroid coherence.
    replica_postings: dict[int, set[int]] = {}
    sampled_vectors: dict[int, np.ndarray] = {}
    quantizer = getattr(index, "quantizer", None)
    posting_ids = index.controller.posting_ids()
    report.postings = len(posting_ids)
    limit = index.config.max_posting_size + size_slack
    for pid in posting_ids:
        try:
            data, _ = index.controller.get(pid)
        except StalePostingError:
            continue  # deleted concurrently while auditing a live index
        if (
            check_size_bounds
            and index.config.enable_split
            and len(data) > limit
        ):
            report.oversized_postings.append((pid, len(data)))
        if pid not in index.centroid_index:
            report.postings_without_centroid.append(pid)
        if quantizer is not None and data.codes is not None and len(data):
            # Encoding is a function of the fitted quantizer alone, so a
            # stored code that quantizes its vector worse than re-encoding
            # does means some rewrite path (split, merge, flush, GC) broke
            # code/vector coherence.
            bad = _incoherent_codes(quantizer, data.vectors, data.codes)
            if bad:
                report.code_mismatches.append((pid, bad))
        live = live_view(data, index.version_map)
        for row, vid in enumerate(live.ids):
            vid = int(vid)
            replica_postings.setdefault(vid, set()).add(pid)
            if vid in sampled and vid not in sampled_vectors:
                sampled_vectors[vid] = live.vectors[row]

    existing = set(posting_ids)
    for pid, _ in index.centroid_index.items():
        if int(pid) not in existing:
            report.centroids_without_posting.append(int(pid))

    # Fresh-tier conservation: a current-version row buffered in the tier
    # is a live replica of its vector (the WAL keeps it durable), so ids
    # in flight between tier and postings are not "lost". Rows the version
    # map considers dead have no business staying buffered.
    tier_ids: set[int] = set()
    tier = getattr(index, "fresh_tier", None)
    if tier is not None and len(tier) > 0:
        t_ids, t_versions, _ = tier.entries()
        live_rows = index.version_map.live_mask(t_ids, t_versions)
        tier_ids = {int(v) for v in t_ids[live_rows]}
        report.fresh_tier_vectors = len(tier_ids)
        report.stale_tier_entries = sorted(
            int(v) for v in t_ids[~live_rows]
        )

    report.lost_vectors = sorted(
        int(v)
        for v in live_ids
        if int(v) not in replica_postings and int(v) not in tier_ids
    )

    # Sampled NPA: the nearest centroid's posting must hold a live copy,
    # tolerating exact-distance ties between boundary centroids.
    checked = 0
    for vid in sorted(sampled):
        vector = sampled_vectors.get(vid)
        if vector is None:
            # No disk replica: either lost (reported above) or tier-only —
            # a buffered row has no posting assignment to NPA-check yet.
            continue
        hits = index.centroid_index.search(vector, 1)
        if len(hits) == 0:
            continue
        checked += 1
        nearest = hits.nearest
        holders = replica_postings[vid]
        if nearest in holders:
            continue
        d_nearest = sq_l2(vector, index.centroid_index.get(nearest))
        try:
            d_best = min(
                sq_l2(vector, index.centroid_index.get(pid))
                for pid in holders
                if pid in index.centroid_index
            )
        except ValueError:
            d_best = float("inf")
        if d_best > d_nearest * (1.0 + npa_tolerance) + npa_tolerance:
            report.npa_violations.append(vid)
    report.npa_checked = checked
    if npa_allowance is None:
        npa_allowance = max(2, checked // 25)
    report.npa_allowance = npa_allowance
    return report


# ----------------------------------------------------------------------
# cluster-level invariants (conservation extended across shards)
# ----------------------------------------------------------------------


@dataclass
class ClusterInvariantReport:
    """Outcome of one :func:`check_cluster_invariants` sweep.

    ``conservation_violations`` is the aggregate the CI cluster gate
    asserts to be zero: lost ids + misplaced ids + cross-shard duplicates
    + diverged replicas + any per-shard single-node audit failure.
    """

    num_shards: int = 0
    directory_size: int = 0
    cluster_live_vectors: int = 0
    # Directory ids with no live copy in their home shard (lost at
    # cluster level even if some shard-local audit passes).
    lost_ids: list[int] = field(default_factory=list)
    # Shard-live ids the directory does not claim for that shard: either
    # orphans (no directory entry at all) or leftovers a migration failed
    # to delete from the old home (the cross-shard "ghost replica" case).
    misplaced_ids: list[tuple[int, int]] = field(default_factory=list)
    # Ids live in more than one shard at once (each id has exactly one
    # home; a split migrates by delete+insert, never by copy).
    duplicate_ids: list[int] = field(default_factory=list)
    # (shard, replica) pairs whose live id set differs from the primary's
    # (replicas are bit-identical builds fed identical writes).
    diverged_replicas: list[tuple[int, int]] = field(default_factory=list)
    # Placement coherence: shards with zero fine centroids can never be
    # routed to, stranding their vectors.
    unroutable_shards: list[int] = field(default_factory=list)
    # Per-shard single-node audits that failed (shard id -> failures).
    shard_failures: dict[int, list[str]] = field(default_factory=dict)

    @property
    def conservation_violations(self) -> int:
        return (
            len(self.lost_ids)
            + len(self.misplaced_ids)
            + len(self.duplicate_ids)
            + len(self.diverged_replicas)
            + len(self.unroutable_shards)
            + sum(len(f) for f in self.shard_failures.values())
        )

    @property
    def failures(self) -> list[str]:
        out: list[str] = []
        if self.lost_ids:
            out.append(
                f"{len(self.lost_ids)} directory ids have no live copy in "
                f"their home shard (e.g. {self.lost_ids[:5]})"
            )
        if self.misplaced_ids:
            out.append(
                f"{len(self.misplaced_ids)} live rows outside their "
                f"directory home (e.g. {self.misplaced_ids[:5]})"
            )
        if self.duplicate_ids:
            out.append(
                f"{len(self.duplicate_ids)} ids live in multiple shards "
                f"(e.g. {self.duplicate_ids[:5]})"
            )
        if self.diverged_replicas:
            out.append(
                f"replicas diverged from their primary: "
                f"{self.diverged_replicas[:5]}"
            )
        if self.unroutable_shards:
            out.append(f"unroutable shards: {self.unroutable_shards[:5]}")
        for shard_id, failures in sorted(self.shard_failures.items()):
            out.append(f"shard {shard_id}: {'; '.join(failures)}")
        return out

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise InvariantViolation("; ".join(self.failures))


def check_cluster_invariants(
    cluster,
    *,
    check_shards: bool = True,
    npa_sample: int = 64,
    seed: int = 0,
) -> ClusterInvariantReport:
    """Audit a ``ClusterSPFresh`` against cross-shard conservation.

    Extends the single-node conservation story one level up: the
    directory and the shards must agree exactly — every directory id live
    in precisely its home shard, no orphans, no cross-shard duplicates,
    every replica's live id set converged with its group primary, every
    shard reachable by the router. With ``check_shards`` each group
    primary also gets the full single-node :func:`check_invariants`
    sweep (size bounds included, since splits/migrations drain LIRE).
    """
    report = ClusterInvariantReport(
        num_shards=len(cluster.groups),
        directory_size=len(cluster.directory),
    )

    sizes = cluster.placement.group_sizes()
    report.unroutable_shards = [
        int(s) for s in range(cluster.placement.num_shards) if sizes[s] == 0
    ]

    shard_live: dict[int, set[int]] = {}
    for group in cluster.groups:
        primary = group.primary
        primary_ids = {int(v) for v in primary.version_map.live_ids()}
        shard_live[group.shard_id] = primary_ids
        for replica_id in group.live_indices():
            replica = group.replicas[replica_id]
            if replica is primary:
                continue
            ids = {int(v) for v in replica.version_map.live_ids()}
            if ids != primary_ids:
                report.diverged_replicas.append(
                    (group.shard_id, replica_id)
                )
        if check_shards:
            shard_report = check_invariants(
                primary, npa_sample=npa_sample, seed=seed
            )
            if not shard_report.ok:
                report.shard_failures[group.shard_id] = shard_report.failures

    report.cluster_live_vectors = sum(len(s) for s in shard_live.values())

    claimed: dict[int, int] = {}
    for vid, home in cluster.directory.items():
        claimed[vid] = home
        if home not in shard_live or vid not in shard_live[home]:
            report.lost_ids.append(vid)
    report.lost_ids.sort()

    seen: dict[int, int] = {}
    for shard_id, ids in sorted(shard_live.items()):
        for vid in ids:
            if claimed.get(vid) != shard_id:
                report.misplaced_ids.append((vid, shard_id))
            if vid in seen:
                report.duplicate_ids.append(vid)
            else:
                seen[vid] = shard_id
    report.misplaced_ids.sort()
    report.duplicate_ids = sorted(set(report.duplicate_ids))
    return report
