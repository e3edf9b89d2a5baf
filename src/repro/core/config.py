"""Configuration for SPFresh and its SPANN substrate.

Defaults are tuned for reproduction scale (10^4-10^5 vectors, postings of
~100 entries) while keeping the same *ratios* the paper uses at billion
scale: postings an order of magnitude larger than the merge threshold, a
reassign range covering a local neighborhood of postings, and a handful of
boundary replicas per vector.

One flat dataclass, one name per knob: subsystem knobs carry their
subsystem's prefix (``serve_*``, ``enable_fresh_tier`` / ``fresh_*``,
``quant_*``, ``cluster_*``) — see docs/api.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.errors import ConfigError


@dataclass
class SPFreshConfig:
    """All SPFresh/SPANN tunables in one place.

    Feature flags (``enable_split`` / ``enable_merge`` / ``enable_reassign``)
    implement the Figure-10 ablation lattice: all off is SPANN+ (append
    only); split on is "+split"; split+reassign on is full SPFresh.
    """

    dim: int = 32

    # --- posting geometry (SPANN §3.1, LIRE §3.2) ---
    max_posting_size: int = 96  # split limit
    min_posting_size: int = 6  # merge threshold
    replica_count: int = 8  # boundary replicas per vector (SPANN uses 8)
    # Replica rule: d <= (1+eps) * d_nearest. SPANN also applies an
    # RNG-style diversity rule; on clustered synthetic data it suppresses
    # nearly all replication (our centroids are dense), so the pure
    # distance-ratio rule is used, which lands at the paper's measured
    # replica statistics (~5.5 replicas, 86% multi).
    closure_epsilon: float = 0.3
    insert_replicas: int = 1  # paper: Updater appends to the nearest posting
    reassign_replicas: int = 8  # reassign re-applies the closure rule

    # --- LIRE behaviour (§3.3, §5.5) ---
    reassign_range: int = 16  # nearby postings checked after a split
    enable_split: bool = True
    enable_merge: bool = True
    enable_reassign: bool = True
    max_reassign_retries: int = 3  # posting-missing abort/re-execute bound

    # --- search (§5.1 metrics) ---
    default_nprobe: int = 8
    search_latency_budget_us: float | None = 10_000.0  # paper's 10ms hard cut
    # SPANN query-aware pruning: drop candidate postings farther than
    # (1+eps) x the nearest centroid distance. None = probe all nprobe.
    search_prune_epsilon: float | None = None
    cpu_cost_per_entry_us: float = 0.02  # modelled scan cost per entry
    cpu_cost_per_query_us: float = 30.0  # modelled centroid-navigation cost

    # --- storage (§4.3) ---
    block_size: int = 4096
    ssd_blocks: int = 1 << 17  # 128Ki blocks = 512 MiB simulated device
    read_latency_us: float = 90.0
    write_latency_us: float = 20.0
    queue_depth: int = 32

    # --- static build (SPANN) ---
    # Leaf size of the hierarchical clustering, *before* boundary
    # replication multiplies on-disk posting length by ~replica factor.
    build_target_posting_size: int = 16
    # Size-penalty weight for balanced clustering; 16 keeps even bimodal
    # postings splitting ~50/50 (the SPANN balance goal) without visibly
    # hurting centroid quality.
    balance_weight: float = 16.0

    # --- background pipeline (§4.2) ---
    background_workers: int = 2
    synchronous_rebuild: bool = True  # run LIRE jobs inline (deterministic)

    # --- fresh tier (docs/fresh-tier.md) ---
    # Inserts land in an in-memory tier searched alongside the disk index;
    # a flush batch-appends them to postings and runs LIRE once per flush.
    # Off by default: the per-insert append path stays bit-identical.
    enable_fresh_tier: bool = False
    fresh_flush_threshold: int = 128  # buffered vectors that trigger a flush
    # Also flush once the oldest buffered insert is this many foreground
    # ops old, so a trickle of inserts cannot stay unflushed forever.
    # None disables (size trigger only).
    fresh_max_age_ops: int | None = None

    # --- serving front-end (repro.serving, docs/serving.md) ---
    serve_queue_capacity: int = 256  # bounded request queue depth
    serve_max_batch: int = 32  # dynamic batcher size trigger
    serve_max_wait_us: float = 1500.0  # dynamic batcher time trigger
    serve_slo_us: float = 15_000.0  # end-to-end latency SLO
    # Admission sheds when the modelled queue wait exceeds this budget
    # (None disables wait-based shedding; the depth bound still applies).
    serve_admission_wait_budget_us: float | None = 30_000.0
    # Concurrent engine workers on the simulated clock (K-worker pool;
    # 1 reproduces the historical serial-executor model bit-for-bit).
    serve_num_workers: int = 1
    # Batch-seat scheduling across tenants: "fifo" (arrival order) or
    # "dwrr" (deficit-weighted round robin — a bursty tenant cannot
    # monopolize batch seats).
    serve_fairness: str = "fifo"
    # Per-tenant DWRR weights, indexed by tenant id; tenants beyond the
    # sequence (or with weights None) get weight 1.0.
    serve_tenant_weights: tuple | None = None
    # One tenant may occupy at most this fraction of the queue; arrivals
    # beyond it shed with reason "tenant_quota" (None disables).
    serve_tenant_quota_fraction: float | None = None

    # --- compressed posting scans (repro.quantize, docs/quantization.md) ---
    # Postings store compact codes next to the exact vectors; searches
    # scan the codes and rerank the best k * quant_rerank_k exactly.
    quant_enabled: bool = False
    quant_kind: str = "pq"  # "pq" (product) or "sq8" (per-dim scalar)
    quant_subspaces: int = 8  # uint8 codes per vector when kind == "pq"
    quant_codebook_size: int = 256  # codewords per subspace (2..256)
    quant_rerank_k: int = 4  # rerank the top k * rerank_k ADC candidates

    # --- cluster sharding (repro.distributed, docs/distributed.md) ---
    # Shards probed per query; None = broadcast to every shard (oracle).
    cluster_nprobe: int | None = 2
    # Fine centroids per shard in the router's placement summary.
    cluster_centroids_per_shard: int = 8
    # Live vectors per shard that trigger a shard split; None disables.
    cluster_split_threshold: int | None = None
    # Replicas per shard group; reads pick one deterministically, writes
    # fan out to every live replica.
    cluster_replication_factor: int = 1

    # --- misc ---
    # Wall-clock time of the searcher's stages (repro.metrics.profiling).
    # Off by default: the disabled cost is one attribute check per stage.
    enable_profiling: bool = False
    centroid_index_kind: str = "brute"  # or "graph" / "bkt" (SPTAG stand-ins)
    seed: int = 0

    def validate(self) -> "SPFreshConfig":
        """Raise :class:`ConfigError` on inconsistent settings; return self."""
        if self.dim <= 0:
            raise ConfigError("dim must be positive")
        if self.max_posting_size < 2:
            raise ConfigError("max_posting_size must be at least 2")
        if not 0 <= self.min_posting_size < self.max_posting_size:
            raise ConfigError(
                "min_posting_size must be in [0, max_posting_size)"
            )
        if self.replica_count < 1 or self.insert_replicas < 1:
            raise ConfigError("replica counts must be at least 1")
        if self.reassign_replicas < 1:
            raise ConfigError("reassign_replicas must be at least 1")
        if self.closure_epsilon < 0:
            raise ConfigError("closure_epsilon must be non-negative")
        if self.reassign_range < 0:
            raise ConfigError("reassign_range must be non-negative")
        if self.build_target_posting_size > self.max_posting_size:
            raise ConfigError(
                "build_target_posting_size must not exceed max_posting_size"
            )
        if self.default_nprobe < 1:
            raise ConfigError("default_nprobe must be at least 1")
        if self.background_workers < 1:
            raise ConfigError("background_workers must be at least 1")
        if self.centroid_index_kind not in ("brute", "graph", "bkt"):
            raise ConfigError(
                f"unknown centroid_index_kind {self.centroid_index_kind!r}"
            )
        if self.enable_reassign and not self.enable_split:
            raise ConfigError("enable_reassign requires enable_split")
        if self.fresh_flush_threshold < 1:
            raise ConfigError("fresh_flush_threshold must be at least 1")
        if self.fresh_max_age_ops is not None and self.fresh_max_age_ops < 1:
            raise ConfigError("fresh_max_age_ops must be >= 1 or None")
        if self.serve_queue_capacity < 1:
            raise ConfigError("serve_queue_capacity must be at least 1")
        if self.serve_max_batch < 1:
            raise ConfigError("serve_max_batch must be at least 1")
        if self.serve_max_wait_us < 0:
            raise ConfigError("serve_max_wait_us must be non-negative")
        if self.serve_slo_us <= 0:
            raise ConfigError("serve_slo_us must be positive")
        budget = self.serve_admission_wait_budget_us
        if budget is not None and budget <= 0:
            raise ConfigError(
                "serve_admission_wait_budget_us must be positive or None"
            )
        if self.serve_num_workers < 1:
            raise ConfigError("serve_num_workers must be at least 1")
        if self.serve_fairness not in ("fifo", "dwrr"):
            raise ConfigError(
                f"unknown serve_fairness {self.serve_fairness!r} "
                f"(choose 'fifo' or 'dwrr')"
            )
        if self.serve_tenant_weights is not None:
            weights = tuple(self.serve_tenant_weights)
            if not weights or any(w <= 0 for w in weights):
                raise ConfigError(
                    "serve_tenant_weights must be a non-empty sequence of "
                    "positive weights (or None for equal shares)"
                )
            self.serve_tenant_weights = weights
        quota = self.serve_tenant_quota_fraction
        if quota is not None and not 0.0 < quota <= 1.0:
            raise ConfigError(
                "serve_tenant_quota_fraction must be in (0, 1] or None"
            )
        if self.quant_kind not in ("pq", "sq8"):
            raise ConfigError(f"unknown quantizer kind {self.quant_kind!r}")
        if self.quant_subspaces < 1:
            raise ConfigError("quant_subspaces must be at least 1")
        if not 2 <= self.quant_codebook_size <= 256:
            raise ConfigError("quant_codebook_size must be in [2, 256]")
        if self.quant_rerank_k < 1:
            raise ConfigError("quant_rerank_k must be at least 1")
        if self.cluster_nprobe is not None and self.cluster_nprobe < 1:
            raise ConfigError("cluster_nprobe must be positive or None")
        if self.cluster_centroids_per_shard < 1:
            raise ConfigError("cluster_centroids_per_shard must be at least 1")
        split = self.cluster_split_threshold
        if split is not None and split < 2:
            raise ConfigError("cluster_split_threshold must be >= 2 or None")
        if self.cluster_replication_factor < 1:
            raise ConfigError("cluster_replication_factor must be at least 1")
        if (
            self.quant_enabled
            and self.quant_kind == "pq"
            and self.dim % self.quant_subspaces != 0
        ):
            raise ConfigError(
                f"dim {self.dim} must be divisible by quant_subspaces "
                f"{self.quant_subspaces}"
            )
        # No record spans a block (storage.layout.PostingCodec): the exact
        # layout stores <id i8, version u1, float32 vector>; a quantized one
        # stores <id, version, code> records and the raw rows apart.
        record_bytes = 9 + 4 * self.dim
        if self.quant_enabled:
            code_bytes = self.quant_subspaces if self.quant_kind == "pq" else self.dim
            record_bytes = max(9 + code_bytes, 4 * self.dim)
        if record_bytes > self.block_size:
            raise ConfigError(
                f"block_size {self.block_size} cannot hold one {record_bytes}-byte "
                f"posting record (dim={self.dim})"
            )
        return self

    def with_overrides(self, **kwargs) -> "SPFreshConfig":
        """Functional update used heavily by the ablation benches."""
        return replace(self, **kwargs).validate()

    @classmethod
    def spann_plus(cls, **kwargs) -> "SPFreshConfig":
        """Preset for the SPANN+ baseline: append-only, no Local Rebuilder."""
        base = dict(enable_split=False, enable_merge=False, enable_reassign=False)
        base.update(kwargs)
        return cls(**base).validate()
