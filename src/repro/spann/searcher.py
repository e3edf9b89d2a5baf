"""Disk-posting searcher (SPANN's searcher, reused by SPFresh §4.1).

One staged pipeline answers every query, single or batched, exact or
quantized:

    fresh-tier snapshot → centroid navigation → per-query pruning
    (+ latency-budget prefix) → one unioned ParallelGET → one version-map
    round trip → scan → [quantized: rerank] → replica-deduplicated top-k

A single query is a batch of one. Exact and quantized scans differ in two
stages only: which section of a posting is fetched and scored (vectors
with ``pairwise_sq_l2_exact``, or codes with the fused ADC kernel), and
whether the scan distances are final (exact) or select ``k * rerank_k``
candidates per query for an exact rerank against row-targeted vector
reads (quantized). The simulated latency of a query is

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

import numpy as np

from repro.centroids.base import CentroidIndex, CentroidSearchResult
from repro.metrics.profiling import NULL_PROFILER, Profiler
from repro.quantize.base import adc_scan
from repro.spann.postings import dedup_top_k
from repro.storage.controller import BlockController
from repro.util.distance import (
    as_matrix,
    as_vector,
    pairwise_sq_l2_exact,
    top_k_smallest,
)
from repro.util.errors import StalePostingError

# One query's scored rows of one posting: (vector ids, distances).
Candidates = tuple[np.ndarray, np.ndarray]


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
        # Quantized scan support (docs/quantization.md): when the codec is
        # sectioned, searches default to scanning compact codes with the
        # fused ADC kernel and reranking the best k * rerank_k candidates
        # against exact vectors. ``quantized=False`` per query falls back
        # to the exact full-posting scan over the same layout.
        self.rerank_k = rerank_k
        self._sectioned = bool(getattr(controller.codec, "sectioned", False))
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
        queries_of: dict[int, list[int]] = {}  # posting -> queries probing it
        for qi, hits in enumerate(nav):
            pids, truncated = self._prune(hits), False
            if apply_budget:
                pids, truncated = self._budget_prefix(pids, fresh_entries, use_quant)
            probes.append(pids)
            cut.append(truncated)
            for pid in pids:
                queries_of.setdefault(pid, []).append(qi)

        # One unioned fetch: code sections only under a quantized scan.
        # Postings deleted concurrently are absent from the reply; their
        # vectors live elsewhere.
        if use_quant:
            fetched, io_latency = self.controller.parallel_get_codes(list(queries_of))
        else:
            fetched, io_latency = self.controller.parallel_get(list(queries_of))
        present = [(pid, fetched[pid]) for pid in queries_of if pid in fetched]

        tables = None
        if use_quant and present:
            with profiler.section("tables"):
                tables = self.controller.codec.quantizer.distance_tables(queries)
        with profiler.section("scan"):
            masks = self._live_masks(present)
            sizes, scored = self._scan(queries, queries_of, present, masks, tables)
        if use_quant:
            scored, rerank_io = self._rerank(
                queries, probes, scored, masks, k * (rerank_k or self.rerank_k)
            )
            io_latency += rerank_io

        # Disk rows scored from codes cost the cheaper ADC rate; every other
        # scored row (exact scan, rerank, fresh tier) costs a full distance.
        code_cost = self._scan_entry_cost(True) if use_quant else 0.0
        results: list[SearchResult] = []
        for qi, pids in enumerate(probes):
            # Assemble in this query's candidate order, fresh tier last:
            # concatenation order is the stable top-k tie-break.
            parts: list[Candidates] = []
            disk_entries = 0
            undersized: list[int] = []
            for pid in pids:
                size = sizes.get(pid)
                if size is None:
                    continue
                disk_entries += size[0]
                if self.min_posting_size and size[1] < self.min_posting_size:
                    undersized.append(pid)
                got = scored[qi].get(pid)
                if got is not None:
                    parts.append(got)
            reranked = sum(len(ids) for ids, _ in parts) if use_quant else 0
            if fresh_entries:
                parts.append((fresh_ids, fresh_dists[qi]))
            with profiler.section("topk"):
                if parts:
                    top_ids, top_dists = dedup_top_k(
                        np.concatenate([ids for ids, _ in parts]),
                        np.concatenate([dists for _, dists in parts]),
                        k,
                        max_dup=len(parts),
                    )
                else:
                    top_ids = np.empty(0, dtype=np.int64)
                    top_dists = np.empty(0, dtype=np.float32)
            full_rows = fresh_entries + (reranked if use_quant else disk_entries)
            cpu = self.cpu_cost_per_query_us + self.cpu_cost_per_entry_us * full_rows
            latency = io_latency + (cpu + code_cost * disk_entries)
            if cut[qi]:
                # The hard cut charges truncated queries exactly the budget
                # (degraded results at budget latency, Figure 2/7 semantics).
                # Non-truncated queries report their true cost — clamping them
                # too would hide over-budget outliers from the measurements.
                latency = self.latency_budget_us
            results.append(
                SearchResult(
                    ids=top_ids,
                    distances=top_dists,
                    latency_us=latency,
                    postings_probed=len(pids),
                    entries_scanned=disk_entries + fresh_entries,
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
        use_quant = self._sectioned if quantized is None else bool(quantized)
        if use_quant and not self._sectioned:
            raise ValueError(
                "quantized search requires a quantized (sectioned) codec"
            )
        return use_quant

    def _scan_entry_cost(self, use_quant: bool) -> float:
        """Modelled CPU per scanned entry.

        The exact scan computes a full ``dim``-component distance per
        entry; the ADC scan does ``code_bytes`` table lookups, so its
        per-entry cost shrinks by the components-touched ratio (capped at
        1: SQ8 touches every dimension and saves IO, not scan CPU).
        """
        if not use_quant:
            return self.cpu_cost_per_entry_us
        codec = self.controller.codec
        return self.cpu_cost_per_entry_us * min(1.0, codec.code_bytes / codec.dim)

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

        Under a quantized scan the projection counts only the code-block
        prefix of each posting and the cheaper ADC per-entry cost; the
        rerank fetch is bounded by ``k * rerank_k`` rows and is not part
        of the truncation decision (it is still charged to the reported
        latency of non-truncated queries).
        """
        if self.latency_budget_us is None:
            return posting_ids, False
        profile = self.controller.ssd.profile
        codec = self.controller.codec
        entry_cost = self._scan_entry_cost(use_quant)
        cum_blocks = 0
        cum_cpu = self.cpu_cost_per_query_us + self.cpu_cost_per_entry_us * (
            extra_entries
        )
        kept: list[int] = []
        for pid in posting_ids:
            try:
                length = self.controller.length(pid)
            except StalePostingError:
                continue
            blocks = (
                codec.scan_blocks_needed(length)
                if use_quant
                else codec.blocks_needed(length)
            )
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

    def _live_masks(self, items: list[tuple[int, object]]) -> dict[int, object]:
        """Per-posting live masks with ONE version-map round trip.

        ``live_mask`` is elementwise, so one call over the concatenated
        id/version columns slices back into per-posting masks. ``None``
        for a posting means every entry is live (the common steady state
        and the version-map-less case) — the scan skips the masking.
        """
        out: dict[int, object] = {pid: None for pid, _ in items}
        scored = [(pid, data) for pid, data in items if len(data) > 0]
        if self.version_map is None or not scored:
            return out
        mask = self.version_map.live_mask(
            np.concatenate([data.ids for _, data in scored]),
            np.concatenate([data.versions for _, data in scored]),
        )
        if not mask.all():
            start = 0
            for pid, data in scored:
                part = mask[start : start + len(data)]
                start += len(data)
                if not part.all():
                    out[pid] = part
        return out

    def _scan(
        self, queries, queries_of, present, masks, tables
    ) -> tuple[dict[int, tuple[int, int]], list[dict[int, Candidates]]]:
        """Score every fetched posting's live rows for the queries probing it.

        Postings probed by the same set of queries are scored together
        with ONE kernel call over their concatenated rows — a batch of one
        is a single call — exact vectors with ``pairwise_sq_l2_exact``
        (rows bit-identical to ``sq_l2_batch``) or, when ``tables`` is
        given, codes with the fused ADC kernel. Returns per posting
        ``(entries on disk, live entries)`` and per query
        ``{posting: (live ids, distance row)}``.
        """
        sizes: dict[int, tuple[int, int]] = {}
        groups: dict[tuple[int, ...], list[tuple[int, np.ndarray, np.ndarray]]] = {}
        for pid, data in present:
            ids = data.ids
            rows = data.vectors if tables is None else data.codes
            mask = masks[pid]
            if mask is not None:
                ids, rows = ids[mask], rows[mask]
            sizes[pid] = (len(data), len(ids))
            if len(ids):
                groups.setdefault(tuple(queries_of[pid]), []).append((pid, ids, rows))
        scored: list[dict[int, Candidates]] = [{} for _ in queries]
        for qidxs, members in groups.items():
            rows = (
                members[0][2]
                if len(members) == 1
                else np.concatenate([part for _, _, part in members])
            )
            if tables is None:
                dists = pairwise_sq_l2_exact(queries[list(qidxs)], rows)
            else:
                dists = adc_scan(tables, rows, query_rows=qidxs)
            start = 0
            for pid, ids, _ in members:
                stop = start + len(ids)
                for j, qi in enumerate(qidxs):
                    scored[qi][pid] = (ids, dists[j, start:stop])
                start = stop
        return sizes, scored

    def _rerank(
        self, queries, probes, scored, masks, budget: int
    ) -> tuple[list[dict[int, Candidates]], float]:
        """Exact rerank of each query's best ``budget`` ADC candidates.

        Per query the global best rows are selected across its probe
        list; the union of every query's survivors is fetched with ONE
        row-targeted vector read and every (query, row) pair is scored in
        ONE fused kernel — the same diff-then-einsum ops as
        ``sq_l2_batch``. Selected rows keep ascending (posting) order, so
        with ``budget`` covering every live candidate the output is
        bit-identical to the exact scan's. Returns the reranked
        candidates in the shape :meth:`_scan` produced, plus the read's
        simulated latency.
        """
        spans: list[tuple[int, int, np.ndarray]] = []  # (query, posting, live rows)
        rows_needed: dict[int, list[np.ndarray]] = {}
        for qi, pids in enumerate(probes):
            live = [pid for pid in pids if pid in scored[qi]]
            if not live:
                continue
            ids_parts, adc_parts = zip(*(scored[qi][pid] for pid in live))
            adc = np.concatenate(adc_parts)
            with self.profiler.section("topk"):
                # Closure assignment replicates boundary vectors into
                # neighboring postings and replicas share one code, so rank
                # only the first copy of each id — otherwise replicas crowd
                # distinct candidates out of the budget.
                _, first = np.unique(np.concatenate(ids_parts), return_index=True)
                selected = first[top_k_smallest(adc[first], budget)]
            bounds = np.cumsum([0] + [len(ids) for ids in ids_parts])
            owner = np.searchsorted(bounds, selected, side="right") - 1
            for pi in np.unique(owner):
                local = np.sort(selected[owner == pi] - bounds[pi])
                spans.append((qi, live[pi], local))
                rows_needed.setdefault(live[pi], []).append(local)

        # Live-row numbers → on-disk rows of each posting's vector section.
        wanted: dict[int, np.ndarray] = {}
        requests: list[tuple[int, np.ndarray]] = []
        for pid, locals_ in rows_needed.items():
            # One query's rows are already sorted and distinct.
            rows = locals_[0] if len(locals_) == 1 else np.unique(np.concatenate(locals_))
            wanted[pid] = rows
            mask = masks[pid]
            requests.append((pid, rows if mask is None else np.nonzero(mask)[0][rows]))
        vectors, io_latency = self.controller.parallel_get_vector_rows(requests)

        spans = [span for span in spans if span[1] in vectors]  # else: vanished
        reranked: list[dict[int, Candidates]] = [{} for _ in probes]
        if spans:
            with self.profiler.section("rerank"):
                rows = np.concatenate(
                    [
                        vectors[pid][np.searchsorted(wanted[pid], local)]
                        for _, pid, local in spans
                    ]
                )
                owner = np.repeat(
                    [qi for qi, _, _ in spans], [len(local) for _, _, local in spans]
                )
                diff = rows - queries[owner]
                dists = np.einsum("ij,ij->i", diff, diff).astype(np.float32, copy=False)
            pos = 0
            for qi, pid, local in spans:
                ids = scored[qi][pid][0]
                reranked[qi][pid] = (ids[local], dists[pos : pos + len(local)])
                pos += len(local)
        return reranked, io_latency
