"""Workload specs and seeded input generation for the e2e benchmark.

Everything the program under test receives is built here from ``--seed``
with numpy only — the benchmark does not use ``repro.datasets`` so that a
change to the program's own generators cannot silently change the
benchmark's inputs. The program's ``config.seed`` stays fixed (0).

Every workload runs the same phases (the contract makes every workload
emit every end-to-end metric); what differs is the facade, the index
configuration, the data shape and how the measured ops are split across
phases. Op *counts* are fixed functions of ``--seconds`` so that every
count the program reports repeats exactly for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NOMINAL_SECONDS = 12  # op counts below are sized for --seconds 12
BATCH_ROWS = 32
K = 10
SERVE_SEGMENTS = 3  # independent trace segments per offered rate
READ_ROUNDS = 3 * SERVE_SEGMENTS  # one trace (rate x segment) per read round
RECOVERY_CYCLES = 5  # checkpoint -> tail -> crash -> recover, this many times
SETUP_REPEATS = 3
SERVE_RATES_QPS = (4000.0, 16000.0, 64000.0)  # under, near, over capacity
SERVE_WORKERS = 4  # simulated engine workers behind the frontend
NUM_SHARDS = 4  # cluster facade
QUERY_POOL = 2000  # distinct query vectors every phase draws from
N_RECALL = 300
N_PARITY = 192  # queries whose 32-row batch must equal the single answers
CENTER_SCALE = 4.0


@dataclass(frozen=True)
class Spec:
    """One workload: facade + config + data shape + op mix.

    Why each exists is in BENCHMARK.json (``why``) and README.md.
    """

    name: str
    facade: str  # "index" | "cluster"
    dim: int
    n_base: int
    n_clusters: int
    skew: float  # Zipf exponent of cluster mass (0 = uniform, sift-like)
    drift: float  # how far the insert pool's distribution moved
    config: dict  # SPFreshConfig keyword overrides
    nprobe: int
    recall_floor: float
    # Measured op counts at NOMINAL_SECONDS.
    n_single: int  # single-query calls on the freshly built index
    n_batches: int  # 32-row query() calls
    n_updates: int  # insert/delete calls (2 inserts : 1 delete)
    query_every: int  # one single query after this many updates
    n_serve: int  # trace requests at each offered rate (over all segments)
    cluster_std: float = 0.5  # spread of each Gaussian blob around its center


SPECS: tuple = (
    # Read path on a freshly built exact index; few updates, so a
    # write-path change must leave its search metrics flat.
    Spec(
        name="search_static",
        facade="index",
        dim=32,
        n_base=2500,
        n_clusters=64,
        skew=1.1,
        drift=0.6,
        config={},
        nprobe=8,
        recall_floor=0.90,
        n_single=14000,
        n_batches=350,
        n_updates=2400,
        query_every=4,
        n_serve=4000,
    ),
    # The paper's shifting-distribution regime: updater, rebuilder, appends,
    # WAL and recovery dominate; search runs on a fragmented index.
    Spec(
        name="update_churn",
        facade="index",
        dim=32,
        n_base=2500,
        n_clusters=64,
        skew=1.1,
        drift=0.6,
        config={},
        nprobe=16,
        recall_floor=0.90,
        n_single=4000,
        n_batches=100,
        n_updates=9000,
        query_every=4,
        n_serve=1800,
    ),
    # The only workload on the quantize, rerank-fetch and fresh-tier paths,
    # and the only one where scan kernels outweigh per-call overhead (8 wide
    # blobs and long postings: ~3,000 entries scanned per query).
    Spec(
        name="quantized_fresh",
        facade="index",
        dim=64,
        n_base=3000,
        n_clusters=8,
        skew=0.0,
        drift=0.0,
        config=dict(
            build_target_posting_size=64,
            max_posting_size=512,
            min_posting_size=8,
            quant_enabled=True,
            quant_kind="pq",
            quant_subspaces=16,
            quant_rerank_k=8,
            enable_fresh_tier=True,
            fresh_flush_threshold=128,
        ),
        nprobe=8,
        recall_floor=0.85,
        n_single=3000,
        n_batches=80,
        n_updates=4500,
        query_every=2,
        n_serve=1200,
    ),
    # Tiny shard scans behind routing, fan-out, merge, admission and
    # batching: serving and cluster overhead shows here and nowhere else.
    # Overlapping blobs (std 3.0) keep recall below 1.
    Spec(
        name="cluster_serving",
        facade="cluster",
        dim=32,
        n_base=3000,
        n_clusters=64,
        cluster_std=3.0,
        skew=0.0,
        drift=0.0,
        # Postings of 12 stay clear of the split limit once boundary
        # replication has multiplied them; at the default 16 they sit on
        # it and every shard build becomes a coin flip between 0 and 20
        # splits.
        config=dict(
            cluster_nprobe=2,
            cluster_replication_factor=2,
            build_target_posting_size=12,
        ),
        nprobe=3,
        recall_floor=0.75,
        n_single=4500,
        n_batches=135,
        n_updates=6000,
        query_every=4,
        n_serve=13500,
    ),
)

SPEC_BY_NAME = {spec.name: spec for spec in SPECS}


@dataclass
class Inputs:
    """Everything one run feeds the program, generated from the seed."""

    base: np.ndarray
    queries: np.ndarray  # query pool shared by every search phase
    single_rows: np.ndarray  # pool rows asked one at a time
    batch_rows: np.ndarray  # (n_batches, 32) pool rows
    # Update stream: kind 0 = insert (vector ``vectors[i]``), 1 = delete.
    update_kind: np.ndarray
    update_id: np.ndarray
    update_vectors: np.ndarray  # one row per op (zeros for deletes)
    churn_rows: np.ndarray  # pool row per interleaved query
    recall_rows: np.ndarray
    parity_rows: np.ndarray
    # One (rate, arrival_us, tenant, pool rows) per read round.
    traces: list = field(default_factory=list)


def scaled(count: int, seconds: float, floor: int = 1) -> int:
    """Op count for ``--seconds``; linear in the run length."""
    return max(floor, int(round(count * seconds / NOMINAL_SECONDS)))


def _zipf(n: int, skew: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-skew)
    return weights / weights.sum()


def _mixture(n, centers, weights, std, rng) -> np.ndarray:
    rows = rng.choice(len(centers), size=n, p=weights)
    noise = rng.normal(scale=std, size=(n, centers.shape[1]))
    return (centers[rows] + noise).astype(np.float32)


def _bursty_arrivals(n: int, rate_qps: float, rng) -> np.ndarray:
    """Two-state modulated Poisson arrivals (us): 10% of time at 5x rate."""
    burst_factor, burst_fraction, run = 5.0, 0.1, max(8, n // 50)
    calm_rate = rate_qps * (1 - burst_fraction * burst_factor) / (1 - burst_fraction)
    burst_rate = rate_qps * burst_factor
    # Run lengths in requests; bursts hold burst_fraction of the *time*.
    calm_run = run * (1 - burst_fraction) / burst_fraction * calm_rate / burst_rate
    rates = np.empty(n)
    i, burst = 0, False
    while i < n:
        length = int(rng.geometric(1.0 / (run if burst else max(2.0, calm_run))))
        rates[i : i + length] = burst_rate if burst else calm_rate
        i += length
        burst = not burst
    return np.cumsum(rng.exponential(size=n) * 1e6 / rates)


def make_inputs(spec: Spec, seed: int, seconds: float, base_div: int = 1) -> Inputs:
    """Build one run's inputs; ``base_div`` shrinks the base set (smoke)."""
    rng = np.random.default_rng([seed, SPECS.index(spec)])
    n_base = max(400, spec.n_base // base_div)
    n_updates = scaled(spec.n_updates, seconds, floor=100)
    n_inserts = n_updates - n_updates // 3

    centers = rng.normal(scale=CENTER_SCALE, size=(spec.n_clusters, spec.dim))
    weights = _zipf(spec.n_clusters, spec.skew)
    std = spec.cluster_std
    base = _mixture(n_base, centers, weights, std, rng)
    # Insert pool: cluster mass rotated and centers nudged, so inserts land
    # where the base set was sparse (the paper's distribution shift).
    pool_weights = np.roll(weights, int(round(spec.drift * spec.n_clusters / 2)))
    pool_centers = centers + spec.drift * std * rng.normal(size=centers.shape)
    pool = _mixture(n_inserts, pool_centers, pool_weights, std, rng)
    # Queries follow both the old and the new distribution.
    half = QUERY_POOL // 2
    queries = np.concatenate(
        [
            _mixture(half, centers, weights, std, rng),
            _mixture(QUERY_POOL - half, pool_centers, pool_weights, std, rng),
        ]
    )

    kind = np.zeros(n_updates, dtype=np.int8)
    ids = np.zeros(n_updates, dtype=np.int64)
    vectors = np.zeros((n_updates, spec.dim), dtype=np.float32)
    live = list(range(n_base))
    next_id, next_row = n_base, 0
    for i in range(n_updates):
        if i % 3 == 2:
            j = int(rng.integers(len(live)))
            kind[i], ids[i] = 1, live[j]
            live[j] = live[-1]
            live.pop()
        else:
            ids[i], vectors[i] = next_id, pool[next_row]
            live.append(next_id)
            next_id += 1
            next_row += 1

    def rows(n: int) -> np.ndarray:
        return rng.integers(QUERY_POOL, size=n)

    n_serve = scaled(spec.n_serve, seconds, floor=192) // SERVE_SEGMENTS
    hot = _zipf(QUERY_POOL, 0.8)
    traces = []
    for round_ in range(READ_ROUNDS):
        rate = SERVE_RATES_QPS[round_ % len(SERVE_RATES_QPS)]
        traces.append(
            (
                rate,
                _bursty_arrivals(n_serve, rate, rng),
                rng.integers(4, size=n_serve).astype(np.int32),
                rng.choice(QUERY_POOL, size=n_serve, p=hot).astype(np.int32),
            )
        )
    return Inputs(
        base=base,
        queries=queries,
        single_rows=rows(scaled(spec.n_single, seconds, floor=90)),
        batch_rows=rows(scaled(spec.n_batches, seconds, floor=9) * BATCH_ROWS).reshape(
            -1, BATCH_ROWS
        ),
        update_kind=kind,
        update_id=ids,
        update_vectors=vectors,
        churn_rows=rows(n_updates // spec.query_every + 1),
        recall_rows=rows(min(N_RECALL, scaled(N_RECALL, seconds, floor=50))),
        parity_rows=rows(N_PARITY),
        traces=traces,
    )
