"""Configuration for SPFresh and its SPANN substrate.

Defaults are tuned for reproduction scale (10^4-10^5 vectors, postings of
~100 entries) while keeping the same *ratios* the paper uses at billion
scale: postings an order of magnitude larger than the merge threshold, a
reassign range covering a local neighborhood of postings, and a handful of
boundary replicas per vector.

Subsystem knobs live in nested sub-configs (``config.serving``,
``config.fresh_tier``, ``config.quantize``, ``config.cluster``) so new
subsystems stop widening one flat namespace. Every historical flat knob
(``serve_*`` / ``fresh_*`` / ``enable_fresh_tier``, plus the ``quant_*``
family for quantization) keeps working as a read/write property alias and
as a constructor / ``with_overrides`` keyword — see docs/api.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.util.errors import ConfigError


@dataclass
class ServingConfig:
    """Serving front-end knobs (repro.serving, docs/serving.md)."""

    queue_capacity: int = 256  # bounded request queue depth
    max_batch: int = 32  # dynamic batcher size trigger
    max_wait_us: float = 1500.0  # dynamic batcher time trigger
    slo_us: float = 15_000.0  # end-to-end latency SLO
    # Admission sheds when the modelled queue wait exceeds this budget
    # (None disables wait-based shedding; the depth bound still applies).
    admission_wait_budget_us: float | None = 30_000.0
    # Concurrent engine workers on the simulated clock (K-worker pool;
    # 1 reproduces the historical serial-executor model bit-for-bit).
    num_workers: int = 1
    # Batch-seat scheduling across tenants: "fifo" (arrival order) or
    # "dwrr" (deficit-weighted round robin — a bursty tenant cannot
    # monopolize batch seats).
    fairness: str = "fifo"
    # Per-tenant DWRR weights, indexed by tenant id; tenants beyond the
    # sequence (or with weights None) get weight 1.0.
    tenant_weights: tuple | None = None
    # One tenant may occupy at most this fraction of the queue; arrivals
    # beyond it shed with reason "tenant_quota" (None disables).
    tenant_quota_fraction: float | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ServingConfig":
        if self.queue_capacity < 1:
            raise ConfigError("serve_queue_capacity must be at least 1")
        if self.max_batch < 1:
            raise ConfigError("serve_max_batch must be at least 1")
        if self.max_wait_us < 0:
            raise ConfigError("serve_max_wait_us must be non-negative")
        if self.slo_us <= 0:
            raise ConfigError("serve_slo_us must be positive")
        if (
            self.admission_wait_budget_us is not None
            and self.admission_wait_budget_us <= 0
        ):
            raise ConfigError(
                "serve_admission_wait_budget_us must be positive or None"
            )
        if self.num_workers < 1:
            raise ConfigError("serve_num_workers must be at least 1")
        if self.fairness not in ("fifo", "dwrr"):
            raise ConfigError(
                f"unknown serve_fairness {self.fairness!r} "
                f"(choose 'fifo' or 'dwrr')"
            )
        if self.tenant_weights is not None:
            weights = tuple(self.tenant_weights)
            if not weights or any(w <= 0 for w in weights):
                raise ConfigError(
                    "serve_tenant_weights must be a non-empty sequence of "
                    "positive weights (or None for equal shares)"
                )
            self.tenant_weights = weights
        if self.tenant_quota_fraction is not None and not (
            0.0 < self.tenant_quota_fraction <= 1.0
        ):
            raise ConfigError(
                "serve_tenant_quota_fraction must be in (0, 1] or None"
            )
        return self


@dataclass
class FreshTierConfig:
    """LSM-style memory tier for the write path (docs/fresh-tier.md).

    Inserts land in an in-memory tier searched alongside the disk index;
    a background flush batch-appends them to postings (one tail-block
    rewrite per posting per flush) and runs LIRE once per flush instead
    of once per insert. Off by default: the classic per-insert append
    path stays bit-identical to earlier revisions.
    """

    enabled: bool = False
    flush_threshold: int = 128  # buffered vectors that trigger a flush
    insert_cpu_us: float = 2.0  # modelled cost of a tier insert
    # Age-based flush trigger: flush when the oldest buffered insert has
    # been sitting for this many foreground ops (inserts + deletes),
    # even if the size threshold was never reached — so a trickle of
    # inserts cannot stay unflushed forever. None disables (size only).
    max_age_ops: int | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "FreshTierConfig":
        if self.flush_threshold < 1:
            raise ConfigError("fresh_flush_threshold must be at least 1")
        if self.insert_cpu_us < 0:
            raise ConfigError("fresh_insert_cpu_us must be non-negative")
        if self.max_age_ops is not None and self.max_age_ops < 1:
            raise ConfigError("fresh_max_age_ops must be >= 1 or None")
        return self


@dataclass
class ClusterConfig:
    """Cluster-scale sharding knobs (repro.distributed, docs/distributed.md).

    Governs :class:`~repro.distributed.ClusterSPFresh`: accuracy-preserving
    centroid-aware placement (queries probe only the ``nprobe`` shards whose
    centroid summaries can contribute), shard splits under growth, and
    replica groups with deterministic read fan-out. ``nprobe=None`` keeps
    the broadcast path — every shard answers, the exactness oracle the
    routed path is gated against.
    """

    # Shards probed per query; None = broadcast to every shard (oracle).
    nprobe: int | None = 2
    # Fine centroids per shard in the router's placement summary.
    centroids_per_shard: int = 8
    # Live vectors per shard that trigger a shard split; None disables.
    split_threshold: int | None = None
    # Replicas per shard group; reads pick one deterministically, writes
    # fan out to every live replica.
    replication_factor: int = 1
    # Modelled cost of ranking shard summaries per query (simulated clock).
    route_cost_us: float = 5.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ClusterConfig":
        if self.nprobe is not None and self.nprobe < 1:
            raise ConfigError("cluster_nprobe must be positive or None")
        if self.centroids_per_shard < 1:
            raise ConfigError("cluster_centroids_per_shard must be at least 1")
        if self.split_threshold is not None and self.split_threshold < 2:
            raise ConfigError("cluster_split_threshold must be >= 2 or None")
        if self.replication_factor < 1:
            raise ConfigError("cluster_replication_factor must be at least 1")
        if self.route_cost_us < 0:
            raise ConfigError("cluster_route_cost_us must be non-negative")
        return self


@dataclass
class QuantizeConfig:
    """Compressed posting scans (repro.quantize, docs/quantization.md).

    When enabled, postings store compact codes next to the exact vectors;
    searches scan the code section with a fused ADC kernel and rerank the
    best ``k * rerank_k`` candidates against the exact vectors. Off by
    default: the classic full-vector scan stays bit-identical.
    """

    enabled: bool = False
    kind: str = "pq"  # "pq" (product) or "sq8" (per-dim scalar)
    pq_subspaces: int = 8  # uint8 codes per vector when kind == "pq"
    pq_codebook_size: int = 256  # codewords per subspace (2..256)
    rerank_k: int = 4  # rerank the top k * rerank_k ADC candidates
    train_sample: int = 4096  # build-time codebook training sample
    train_iters: int = 8  # k-means iterations per subspace

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "QuantizeConfig":
        if self.kind not in ("pq", "sq8"):
            raise ConfigError(f"unknown quantizer kind {self.kind!r}")
        if self.pq_subspaces < 1:
            raise ConfigError("quant_subspaces must be at least 1")
        if not 2 <= self.pq_codebook_size <= 256:
            raise ConfigError("quant_codebook_size must be in [2, 256]")
        if self.rerank_k < 1:
            raise ConfigError("quant_rerank_k must be at least 1")
        if self.train_sample < 1:
            raise ConfigError("quant_train_sample must be at least 1")
        if self.train_iters < 1:
            raise ConfigError("quant_train_iters must be at least 1")
        return self


# Flat back-compat aliases: historical knob name -> (sub-config, attribute).
_FLAT_ALIASES: dict[str, tuple[str, str]] = {
    "serve_queue_capacity": ("serving", "queue_capacity"),
    "serve_max_batch": ("serving", "max_batch"),
    "serve_max_wait_us": ("serving", "max_wait_us"),
    "serve_slo_us": ("serving", "slo_us"),
    "serve_admission_wait_budget_us": ("serving", "admission_wait_budget_us"),
    "serve_num_workers": ("serving", "num_workers"),
    "serve_fairness": ("serving", "fairness"),
    "serve_tenant_weights": ("serving", "tenant_weights"),
    "serve_tenant_quota_fraction": ("serving", "tenant_quota_fraction"),
    "enable_fresh_tier": ("fresh_tier", "enabled"),
    "fresh_flush_threshold": ("fresh_tier", "flush_threshold"),
    "fresh_insert_cpu_us": ("fresh_tier", "insert_cpu_us"),
    "fresh_max_age_ops": ("fresh_tier", "max_age_ops"),
    "quant_enabled": ("quantize", "enabled"),
    "quant_kind": ("quantize", "kind"),
    "quant_subspaces": ("quantize", "pq_subspaces"),
    "quant_codebook_size": ("quantize", "pq_codebook_size"),
    "quant_rerank_k": ("quantize", "rerank_k"),
    "quant_train_sample": ("quantize", "train_sample"),
    "quant_train_iters": ("quantize", "train_iters"),
    "cluster_nprobe": ("cluster", "nprobe"),
    "cluster_centroids_per_shard": ("cluster", "centroids_per_shard"),
    "cluster_split_threshold": ("cluster", "split_threshold"),
    "cluster_replication_factor": ("cluster", "replication_factor"),
    "cluster_route_cost_us": ("cluster", "route_cost_us"),
}

_SECTIONS = ("serving", "fresh_tier", "quantize", "cluster")


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
    closure_epsilon: float = 0.3  # replica rule: d <= (1+eps) * d_nearest
    # SPANN also applies an RNG-style diversity rule; on clustered synthetic
    # data it suppresses nearly all replication (our centroids are dense),
    # so the build defaults to the pure distance-ratio rule, which lands at
    # the paper's measured replica statistics (~5.5 replicas, 86% multi).
    build_rng_rule: bool = False
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
    build_branch_factor: int = 8
    # Leaf size of the hierarchical clustering, *before* boundary
    # replication multiplies on-disk posting length by ~replica factor.
    build_target_posting_size: int = 16
    # Size-penalty weight for balanced clustering; 16 keeps even bimodal
    # postings splitting ~50/50 (the SPANN balance goal) without visibly
    # hurting centroid quality.
    balance_weight: float = 16.0
    kmeans_iters: int = 10

    # --- background pipeline (§4.2) ---
    background_workers: int = 2
    synchronous_rebuild: bool = True  # run LIRE jobs inline (deterministic)

    # --- subsystems (nested sub-configs; flat aliases still accepted) ---
    fresh_tier: FreshTierConfig = field(default_factory=FreshTierConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    quantize: QuantizeConfig = field(default_factory=QuantizeConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    # --- misc ---
    # Wall-clock profiler (repro.metrics.profiling). Off by default: the
    # disabled cost is one attribute check per instrumented section.
    enable_profiling: bool = False
    centroid_index_kind: str = "brute"  # or "graph" / "bkt" (SPTAG stand-ins)
    seed: int = 0
    wal_path: str | None = None
    snapshot_dir: str | None = None
    extras: dict = field(default_factory=dict)

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
        self.fresh_tier.validate()
        self.serving.validate()
        self.quantize.validate()
        self.cluster.validate()
        if (
            self.quantize.enabled
            and self.quantize.kind == "pq"
            and self.dim % self.quantize.pq_subspaces != 0
        ):
            raise ConfigError(
                f"dim {self.dim} must be divisible by quant_subspaces "
                f"{self.quantize.pq_subspaces}"
            )
        return self

    def with_overrides(self, **kwargs) -> "SPFreshConfig":
        """Functional update used heavily by the ablation benches.

        Accepts both nested fields (``serving=ServingConfig(...)``) and
        flat aliases (``serve_max_batch=4``). Nested sub-configs not
        explicitly replaced are deep-copied so the new config never
        shares mutable sub-config state with ``self``.
        """
        flat = {k: kwargs.pop(k) for k in list(kwargs) if k in _FLAT_ALIASES}
        for section in _SECTIONS:
            if section not in kwargs:
                kwargs[section] = replace(getattr(self, section))
        out = replace(self, **kwargs)
        for name, value in flat.items():
            setattr(out, name, value)
        return out.validate()

    @classmethod
    def spann_plus(cls, **kwargs) -> "SPFreshConfig":
        """Preset for the SPANN+ baseline: append-only, no Local Rebuilder."""
        base = dict(enable_split=False, enable_merge=False, enable_reassign=False)
        base.update(kwargs)
        return cls(**base).validate()


def _alias(section: str, attr: str) -> property:
    def getter(self):
        return getattr(getattr(self, section), attr)

    def setter(self, value) -> None:
        setattr(getattr(self, section), attr, value)

    return property(getter, setter)


for _name, (_section, _attr) in _FLAT_ALIASES.items():
    setattr(SPFreshConfig, _name, _alias(_section, _attr))
del _name, _section, _attr

# Accept flat aliases as constructor keywords too, so historical call
# sites like SPFreshConfig(enable_fresh_tier=True, serve_max_batch=4)
# keep working unchanged. Aliases are applied after the generated
# __init__, so they win over a simultaneously-passed sub-config.
_GENERATED_INIT = SPFreshConfig.__init__


def _init_with_aliases(self, *args, **kwargs) -> None:
    flat = {k: kwargs.pop(k) for k in list(kwargs) if k in _FLAT_ALIASES}
    _GENERATED_INIT(self, *args, **kwargs)
    for name, value in flat.items():
        setattr(self, name, value)


_init_with_aliases.__wrapped__ = _GENERATED_INIT
SPFreshConfig.__init__ = _init_with_aliases
