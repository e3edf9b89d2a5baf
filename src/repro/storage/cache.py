"""LRU posting cache in front of the Block Controller.

Production disk-based ANNS deployments serve a large fraction of probes
from the OS page cache or an application-level buffer pool; the paper's
device-IOPS numbers are what remains after that layer. This wrapper makes
the effect explicit and measurable: a bounded LRU over decoded postings.
An entry is served only while the controller still maps its posting as it
did when the entry was filled (:meth:`BlockController.mapping_entry`), so
readers never observe stale posting bytes, whichever handle on the
controller the writer used (version-map filtering still applies on top,
as always).

Cache hits cost a modelled DRAM latency instead of device waves; the
hit/miss counters feed the cache ablation bench.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.storage.controller import BlockController
from repro.storage.layout import PostingArena, PostingData


class CachedBlockController:
    """Read-through LRU cache over a :class:`BlockController`.

    Exposes the same posting API; only read paths change, and writes go
    straight to ``inner``. ``capacity`` is the number of postings held;
    ``hit_latency_us`` the modelled cost of a cached read (DRAM copy, not
    device waves).
    """

    def __init__(
        self,
        inner: BlockController,
        capacity: int = 256,
        hit_latency_us: float = 2.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.inner = inner
        self.capacity = capacity
        self.hit_latency_us = hit_latency_us
        self._lock = threading.Lock()
        self._cache: "OrderedDict[int, PostingData]" = OrderedDict()
        # The inner mapping entry each cached posting was read under.
        self._filled_from: dict[int, object] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # cache mechanics
    # ------------------------------------------------------------------
    def _cache_get(self, posting_id: int) -> PostingData | None:
        current = self.inner.mapping_entry(posting_id)
        with self._lock:
            data = self._cache.get(posting_id)
            if data is None:
                self.misses += 1
                return None
            if current is None or self._filled_from[posting_id] is not current:
                # Rewritten or deleted since the entry was filled.
                del self._cache[posting_id], self._filled_from[posting_id]
                self.misses += 1
                return None
            self._cache.move_to_end(posting_id)
            self.hits += 1
            return data

    def _cache_put(
        self, posting_id: int, data: PostingData, entry: object
    ) -> PostingData:
        # Copy-on-insert: ``parallel_get`` hands out zero-copy slices of
        # the shared decode arena (PostingCodec.decode_batch), and callers
        # may mutate what they were handed. The cache outlives the call,
        # so it must own its bytes — ``owned()`` copies exactly when the
        # columns are views and is free on the single-GET path, whose
        # decode already returns owned columns.
        data = data.owned()
        with self._lock:
            self._cache[posting_id] = data
            self._filled_from[posting_id] = entry
            self._cache.move_to_end(posting_id)
            while len(self._cache) > self.capacity:
                evicted, _ = self._cache.popitem(last=False)
                del self._filled_from[evicted]
        return data

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._filled_from.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def cached_postings(self) -> int:
        with self._lock:
            return len(self._cache)

    # ------------------------------------------------------------------
    # read paths (cached)
    # ------------------------------------------------------------------
    def get(self, posting_id: int) -> tuple[PostingData, float]:
        cached = self._cache_get(posting_id)
        if cached is not None:
            return cached, self.hit_latency_us
        # Taken before the read: a write racing it leaves the entry stale.
        entry = self.inner.mapping_entry(posting_id)
        data, latency = self.inner.get(posting_id)
        self._cache_put(posting_id, data, entry)
        return data, latency

    def parallel_get(self, posting_ids: list[int]) -> tuple[PostingArena, float]:
        found: dict[int, PostingData] = {}
        missing: list[int] = []
        for pid in posting_ids:
            cached = self._cache_get(pid)
            if cached is not None:
                found[pid] = cached
            else:
                missing.append(pid)
        hit_latency = self.hit_latency_us if found else 0.0
        device_latency = 0.0
        if missing:
            entries = {pid: self.inner.mapping_entry(pid) for pid in missing}
            fetched, device_latency = self.inner.parallel_get(missing)
            for pid, data in fetched.items():
                found[pid] = self._cache_put(pid, data, entries[pid])
        # The arena handed out is assembled from the cache's owned copies,
        # in request order, so it aliases neither the cache nor the inner
        # controller's decode arena.
        arena = PostingArena.from_postings(
            [(pid, found[pid]) for pid in posting_ids if pid in found], self.codec.dim
        )
        # Hits are served from DRAM while the device round-trip for the
        # misses is in flight, so a mixed batch completes when the slower
        # of the two paths does — not after both in sequence.
        return arena, max(hit_latency, device_latency)

    # ------------------------------------------------------------------
    # pure delegation (writes included)
    # ------------------------------------------------------------------
    def __getattr__(self, name):
        return getattr(self.inner, name)

    def memory_bytes(self) -> int:
        """Modelled DRAM cost of cached postings: every column they carry
        (a quantized index's postings carry codes too)."""
        with self._lock:
            return sum(
                column.nbytes
                for data in self._cache.values()
                for column in (data.ids, data.versions, data.vectors, data.codes)
                if column is not None
            )
