"""Disk-posting searcher (SPANN's searcher, reused by SPFresh §4.1).

One staged pipeline answers every query, single or batched, exact or
quantized:

    fresh-tier snapshot → centroid navigation → per-query pruning
    (+ latency-budget prefix) → one unioned ParallelGET → one version-map
    round trip → scan → [quantized: rerank] → replica-deduplicated top-k

The fetch decodes the probed postings once into one columnar
:class:`~repro.storage.layout.PostingArena`, and every later stage works
on its columns in place: one ``live_mask`` over ``arena.ids`` /
``arena.versions``, posting sizes from ``arena.bounds``, and candidates
expressed as (query, arena row) *pairs* — query after query, each in
(probe, row) order — rather than as per-posting slices. A single query is
a batch of one whose pairs are the arena rows as they stand (one kernel
call on ``arena.rows``, nothing gathered); a batch builds the pair index
with ``repeat``/``cumsum`` arithmetic and scores it with one chunked pair
kernel. Every query ends with one ``dedup_top_k`` over its contiguous
slice of the pair arrays.

Exact and quantized scans differ in two stages only: which sections of a
posting are fetched and scored (every section, scoring vectors with
``pairwise_sq_l2_exact`` / ``sq_l2_pairs``, or the code section 0 alone,
scoring codes with the fused ADC kernels), and whether the
scan distances are final (exact) or select ``k * rerank_k`` candidates
per query for an exact rerank against row-targeted reads of the
last (vector) section (quantized). The simulated latency of a query is

    io (ParallelGET waves on the device, shared by the batch)  +
    modelled CPU (fixed navigation cost + per-entry scan/rerank cost)

and the paper's 10 ms hard cut is honoured by *truncating the probe list*:
when the full candidate fetch would blow the budget, only the prefix of
postings that fits is read and the query returns possibly-degraded results
at the budget latency — exactly the accuracy/latency coupling Figure 2 and
Figure 7 rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.centroids.base import CentroidIndex, CentroidSearchResult
from repro.metrics.profiling import NULL_PROFILER, Profiler
from repro.quantize.base import adc_scan, adc_scan_pairs
from repro.spann.postings import dedup_top_k
from repro.storage.controller import BlockController
from repro.util.distance import (
    as_matrix,
    as_vector,
    pairwise_sq_l2_exact,
    sq_l2_pairs,
    top_k_smallest,
)


@dataclass
class SearchResult:
    """Outcome of one query."""

    ids: np.ndarray
    distances: np.ndarray
    latency_us: float
    postings_probed: int = 0
    entries_scanned: int = 0
    io_latency_us: float = 0.0
    truncated: bool = False
    undersized_postings: list[int] = field(default_factory=list)
    fresh_entries_scanned: int = 0  # in-memory tier rows merged into top-k
    reranked_entries: int = 0  # exact-vector rows fetched by the rerank step

    def __len__(self) -> int:
        return len(self.ids)


class SpannSearcher:
    """Shared searcher over a centroid index + block controller."""

    def __init__(
        self,
        centroid_index: CentroidIndex,
        controller: BlockController,
        version_map=None,
        *,
        default_nprobe: int = 8,
        latency_budget_us: float | None = None,
        cpu_cost_per_entry_us: float = 0.02,
        cpu_cost_per_query_us: float = 30.0,
        min_posting_size: int = 0,
        prune_epsilon: float | None = None,
        profiler: Profiler | None = None,
        fresh_tier=None,
        rerank_k: int = 4,
    ) -> None:
        self.centroid_index = centroid_index
        self.controller = controller
        self.version_map = version_map
        self.profiler = profiler or NULL_PROFILER
        self.default_nprobe = default_nprobe
        self.latency_budget_us = latency_budget_us
        self.cpu_cost_per_entry_us = cpu_cost_per_entry_us
        self.cpu_cost_per_query_us = cpu_cost_per_query_us
        self.min_posting_size = min_posting_size
        # Quantized scan support (docs/quantization.md): when the codec
        # stores codes, searches default to scanning them with the fused
        # ADC kernel and reranking the best k * rerank_k candidates
        # against exact vectors. ``quantized=False`` per query falls back
        # to the exact full-posting scan over the same layout.
        self.rerank_k = rerank_k
        self._quantized = controller.codec.quantizer is not None
        # SPANN's query-aware dynamic pruning: skip candidate postings
        # whose centroid distance exceeds (1 + eps) x the nearest centroid
        # distance — easy queries touch fewer postings. None disables.
        self.prune_epsilon = prune_epsilon
        # Optional in-memory fresh tier (repro.core.fresh_tier): its rows
        # join the candidate pool as one extra pseudo-posting, always
        # scored exactly, so merged top-k matches an eagerly flushed index.
        self.fresh_tier = fresh_tier

    def search(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int | None = None,
        *,
        rerank_k: int | None = None,
        quantized: bool | None = None,
    ) -> SearchResult:
        """Return the approximate ``k`` nearest live vectors to ``query``.

        ``quantized`` overrides the codec-derived default (compressed scan
        iff the index stores codes); ``rerank_k`` overrides the searcher's
        rerank candidate multiplier for this query only. The latency
        budget applies here and only here.
        """
        query = as_vector(query, self.centroid_index.dim)
        return self._run(
            query.reshape(1, -1), k, nprobe, rerank_k, quantized, apply_budget=True
        )[0]

    def search_many(
        self,
        queries,
        k: int,
        nprobe: int | None = None,
        *,
        rerank_k: int | None = None,
        quantized: bool | None = None,
    ) -> list[SearchResult]:
        """Batched search: one device submission serves many queries.

        Candidate postings of all queries are unioned and fetched with a
        single ParallelGET, so the device queue amortizes across the batch
        (the paper's ParallelGET rationale, applied cross-query). Each
        result carries the *shared* batch I/O latency — the completion
        time of the batched submission — plus its own CPU term. The latency
        budget is not applied; everything else is :meth:`search`.
        """
        if not (isinstance(queries, np.ndarray) and queries.ndim == 2):
            queries = [as_vector(q, self.centroid_index.dim) for q in queries]
        if len(queries) == 0:
            return []
        queries = as_matrix(queries, self.centroid_index.dim)
        return self._run(queries, k, nprobe, rerank_k, quantized, apply_budget=False)

    def _run(
        self, queries: np.ndarray, k, nprobe, rerank_k, quantized, *, apply_budget: bool
    ) -> list[SearchResult]:
        """The pipeline behind both entry points; ``queries`` is ``(n, dim)``."""
        profiler = self.profiler
        nprobe = nprobe or self.default_nprobe
        use_quant = self._resolve_quantized(quantized)
        n = len(queries)

        # Fresh tier: one pseudo-posting scored exactly against the batch.
        fresh_ids = fresh_dists = None
        fresh_entries = 0
        if self.fresh_tier is not None and len(self.fresh_tier) > 0:
            fresh_ids, fresh_matrix = self.fresh_tier.live_snapshot()
            fresh_entries = len(fresh_ids)
            if fresh_entries:
                with profiler.section("scan"):
                    fresh_dists = pairwise_sq_l2_exact(queries, fresh_matrix)

        # Navigate, then prune (and budget-cut) each query's probe list.
        with profiler.section("navigate"):
            nav = self.centroid_index.search_batch(queries, nprobe)
        probes: list[list[int]] = []
        cut: list[bool] = []
        for hits in nav:
            pids, truncated = self._prune(hits), False
            if apply_budget:
                pids, truncated = self._budget_prefix(pids, fresh_entries, use_quant)
            probes.append(pids)
            cut.append(truncated)

        # One unioned fetch into one arena: code sections only under a
        # quantized scan. Postings deleted concurrently are absent from the
        # arena; their vectors live elsewhere.
        wanted = probes[0] if n == 1 else list(dict.fromkeys(chain.from_iterable(probes)))
        if use_quant:
            arena, io_latency = self.controller.parallel_get_codes(wanted)
        else:
            arena, io_latency = self.controller.parallel_get(wanted)

        tables = None
        if use_quant and len(arena):
            with profiler.section("tables"):
                tables = self.controller.codec.quantizer.distance_tables(queries)
        with profiler.section("scan"):
            # One version-map round trip over the arena's columns as they
            # stand. ``row_of`` is the arena row behind each candidate; for
            # a single query with every row live it stays None — the
            # candidates are the arena, uncopied.
            ids, row_of = arena.ids, None
            bounds = live_bounds = arena.bounds
            if self.version_map is not None and len(ids):
                mask = self.version_map.live_mask(ids, arena.versions)
                if not mask.all():
                    row_of = np.flatnonzero(mask)
                    live_bounds = np.searchsorted(row_of, bounds)
            # Posting sizes as Python ints: the per-query bookkeeping below
            # is a handful of additions, cheaper in a list than in numpy.
            stored = live = (bounds[1:] - bounds[:-1]).tolist()
            if row_of is not None:
                live = (live_bounds[1:] - live_bounds[:-1]).tolist()
            # Per query: the arena slots of the postings it probed that were
            # fetched (probe order), the entries they hold on disk, and its
            # candidates — (query, live row) pairs, query after query and
            # each in (probe, row) order, the stable top-k tie-break; query
            # q owns pairs cand[q]:cand[q + 1].
            slot_of = arena.slots
            slots: list[list[int]] = []
            on_disk: list[int] = []
            cand = [0]
            for pids in probes:
                mine = [slot for slot in map(slot_of.get, pids) if slot is not None]
                slots.append(mine)
                on_disk.append(sum([stored[slot] for slot in mine]))
                cand.append(cand[-1] + sum([live[slot] for slot in mine]))
            if n == 1:
                # Arena order is probe order, so one kernel call over the
                # rows as they stand; scoring the few dead rows too is
                # cheaper than gathering the live ones first.
                dists = (
                    pairwise_sq_l2_exact(queries, arena.rows)
                    if tables is None
                    else adc_scan(tables, arena.rows)
                )[0]
                if row_of is not None:
                    ids, dists = ids[row_of], dists[row_of]
            else:
                at = np.fromiter(chain.from_iterable(slots), dtype=np.intp)
                sizes = live_bounds[at + 1] - live_bounds[at]
                pairs = np.repeat(live_bounds[at] - sizes.cumsum() + sizes, sizes)
                pairs += np.arange(len(pairs))
                row_of = pairs if row_of is None else row_of[pairs]
                ids = ids[row_of]
                if tables is None:
                    dists = sq_l2_pairs(queries, arena.rows, row_of, cand)
                else:
                    dists = adc_scan_pairs(tables, arena.rows, row_of, cand)
        parts = None
        if use_quant:
            # Scan distances only rank: each query's best candidates are
            # re-scored against exact vectors, and only those remain.
            ids, dists, cand, parts, rerank_io = self._rerank(
                queries, arena, ids, dists, cand, row_of, k * (rerank_k or self.rerank_k)
            )
            io_latency += rerank_io

        # Disk rows scored from codes cost the cheaper ADC rate; every other
        # scored row (exact scan, rerank, fresh tier) costs a full distance.
        code_cost = self._entry_cost(True) if use_quant else 0.0
        results: list[SearchResult] = []
        for qi, mine in enumerate(slots):
            # One contiguous candidate slice per query; the fresh tier's
            # rows go last (concatenation order is the top-k tie-break).
            cand_ids = ids[cand[qi] : cand[qi + 1]]
            cand_dists = dists[cand[qi] : cand[qi + 1]]
            reranked = len(cand_ids) if use_quant else 0
            # An id occurs at most once per contributing posting (+ tier).
            max_dup = parts[qi] if use_quant else len(mine) - [live[s] for s in mine].count(0)
            if fresh_entries:
                cand_ids = np.concatenate((cand_ids, fresh_ids))
                cand_dists = np.concatenate((cand_dists, fresh_dists[qi]))
                max_dup += 1
            with profiler.section("topk"):
                top_ids, top_dists = dedup_top_k(cand_ids, cand_dists, k, max_dup=max_dup)
            full_rows = fresh_entries + (reranked if use_quant else on_disk[qi])
            cpu = self.cpu_cost_per_query_us + self.cpu_cost_per_entry_us * full_rows
            latency = io_latency + (cpu + code_cost * on_disk[qi])
            if cut[qi]:
                # The hard cut charges truncated queries exactly the budget
                # (degraded results at budget latency, Figure 2/7 semantics).
                # Non-truncated queries report their true cost — clamping them
                # too would hide over-budget outliers from the measurements.
                latency = self.latency_budget_us
            undersized: list[int] = []
            if self.min_posting_size:
                undersized = [
                    arena.posting_ids[slot]
                    for slot in mine
                    if live[slot] < self.min_posting_size
                ]
            results.append(
                SearchResult(
                    ids=top_ids,
                    distances=top_dists,
                    latency_us=latency,
                    postings_probed=len(probes[qi]),
                    entries_scanned=on_disk[qi] + fresh_entries,
                    io_latency_us=io_latency,
                    truncated=cut[qi],
                    undersized_postings=undersized,
                    fresh_entries_scanned=fresh_entries,
                    reranked_entries=reranked,
                )
            )
        return results

    # ------------------------------------------------------------------
    def _resolve_quantized(self, quantized: bool | None) -> bool:
        use_quant = self._quantized if quantized is None else bool(quantized)
        if use_quant and not self._quantized:
            raise ValueError("quantized search requires a quantized codec")
        return use_quant

    def _entry_cost(self, use_quant: bool) -> float:
        """Modelled CPU per scanned entry.

        The exact scan computes a full ``dim``-component distance per
        entry; the ADC scan does ``code_bytes`` table lookups, so its
        per-entry cost shrinks by the components-touched ratio (capped at
        1: SQ8 touches every dimension and saves IO, not scan CPU).
        """
        if not use_quant:
            return self.cpu_cost_per_entry_us
        codec = self.controller.codec
        return self.cpu_cost_per_entry_us * min(1.0, codec.quantizer.code_bytes / codec.dim)

    def _prune(self, hits: CentroidSearchResult) -> list[int]:
        """Candidate posting ids after SPANN's query-aware dynamic pruning."""
        if self.prune_epsilon is not None and len(hits) > 1:
            limit = (1.0 + self.prune_epsilon) ** 2 * float(hits.distances[0])
            return [
                pid
                for pid, dist in zip(
                    hits.posting_ids.tolist(), hits.distances.tolist()
                )
                if dist <= limit
            ]
        return hits.posting_ids.tolist()

    def _budget_prefix(
        self,
        posting_ids: list[int],
        extra_entries: int = 0,
        use_quant: bool = False,
    ) -> tuple[list[int], bool]:
        """Longest prefix of candidate postings that fits the latency budget.

        The projected cost mirrors the latency actually charged to the
        query: read waves for the cumulative blocks plus the fixed
        navigation CPU plus the per-entry scan CPU — so the truncation
        decision and the reported latency agree. ``extra_entries`` seeds
        the CPU term with work outside the probe list (the fresh-tier
        scan), keeping that agreement when the tier is enabled.

        Under a quantized scan the projection counts only the blocks of
        each posting's code section and the cheaper ADC per-entry cost; the
        rerank fetch is bounded by ``k * rerank_k`` rows and is not part
        of the truncation decision (it is still charged to the reported
        latency of non-truncated queries).
        """
        if self.latency_budget_us is None:
            return posting_ids, False
        profile = self.controller.ssd.profile
        codec = self.controller.codec
        sections = 1 if use_quant else None
        entry_cost = self._entry_cost(use_quant)
        cum_blocks = 0
        cum_cpu = self.cpu_cost_per_query_us + self.cpu_cost_per_entry_us * (
            extra_entries
        )
        kept: list[int] = []
        for pid, length in zip(posting_ids, self.controller.lengths(posting_ids)):
            if length is None:  # stale: deleted since navigation
                continue
            blocks = codec.blocks_needed(length, sections)
            projected = (
                profile.read_batch_latency_us(cum_blocks + blocks)
                + cum_cpu
                + entry_cost * length
            )
            if kept and projected > self.latency_budget_us:
                return kept, True
            kept.append(pid)
            cum_blocks += blocks
            cum_cpu += entry_cost * length
        return kept, False

    def _rerank(self, queries, arena, ids, adc, cand, row_of, budget: int):
        """Exact rerank of each query's best ``budget`` ADC candidates.

        Takes the scan's pair arrays (``ids`` / ``adc`` per pair, ``row_of``
        its arena row or None for "pair p is row p", query q owning
        ``cand[q]:cand[q + 1]``) and returns the survivors in the same
        shape: ``(ids, exact distances, cand, contributing postings per
        query, read latency)``. Per query the global best rows are
        selected across its probe list; the union of every query's
        survivors is fetched with ONE row-targeted vector read and every
        (query, row) pair is scored in ONE fused kernel — the same
        diff-then-einsum ops as ``sq_l2_batch``. Survivors keep (probe,
        row) order, so with ``budget`` covering every live candidate the
        output is bit-identical to the exact scan's.
        """
        n = len(cand) - 1
        picks: list[np.ndarray] = []
        for begin, end in zip(cand, cand[1:]):
            with self.profiler.section("topk"):
                # Closure assignment replicates boundary vectors into
                # neighboring postings and replicas share one code, so rank
                # only the first copy of each id — otherwise replicas crowd
                # distinct candidates out of the budget.
                _, first = np.unique(ids[begin:end], return_index=True)
                best = first[top_k_smallest(adc[begin:end][first], budget)]
            picks.append(np.sort(best) + begin)
        picked = np.concatenate(picks)
        query_of = np.repeat(np.arange(n), [len(best) for best in picks])

        # Candidates -> arena rows -> on-disk rows of each posting's vector
        # section, the union over all queries read once.
        pos = picked if row_of is None else row_of[picked]
        need = np.unique(pos)
        bounds = arena.bounds
        cuts = np.searchsorted(need, bounds).tolist()
        spans = {
            pid: (lo, hi, base)
            for pid, lo, hi, base in zip(arena.posting_ids, cuts, cuts[1:], bounds.tolist())
            if hi > lo
        }
        served, vectors, io_latency = self.controller.parallel_get_vector_rows(
            [(pid, need[lo:hi] - base) for pid, (lo, hi, base) in spans.items()]
        )
        if len(served) < len(spans):
            # A posting vanished between the two fetches: drop its rows.
            found = np.zeros(len(need), dtype=bool)
            for pid in served:
                found[spans[pid][0] : spans[pid][1]] = True
            alive = found[np.searchsorted(need, pos)]
            picked, query_of, pos, need = picked[alive], query_of[alive], pos[alive], need[found]

        cand = [0, *np.bincount(query_of, minlength=n).cumsum().tolist()]
        with self.profiler.section("rerank"):
            dists = sq_l2_pairs(queries, vectors, np.searchsorted(need, pos), cand)
        # A query's contributing postings: runs of equal (query, slot) in
        # its (probe, row)-ordered survivors.
        run = query_of * len(bounds) + np.searchsorted(bounds, pos, side="right")
        starts_run = np.ones(len(run), dtype=bool)
        starts_run[1:] = run[1:] != run[:-1]
        parts = np.bincount(query_of[starts_run], minlength=n).tolist()
        return ids[picked], dists, cand, parts, io_latency
