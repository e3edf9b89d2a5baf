"""Figure 8 — Search throughput / device IOPS vs number of search threads.

Paper: on the Azure lsv3 NVMe device, QPS and IOPS grow with search
threads and saturate around 8 threads at ~400K IOPS. Our device model has
no global throttle, so saturation here comes from the compute side (the
GIL plays the role of the CPU ceiling); the shape to reproduce is
*monotonic growth flattening out*, with IOPS tracking QPS linearly
(blocks/query is constant).
"""

import threading
import time

from benchmarks.conftest import DIM, run_once, spfresh_config
from repro.api import QueryRequest
from repro.bench.reporting import format_table
from repro.core.index import SPFreshIndex
from repro.datasets import make_sift_like

THREAD_COUNTS = (1, 2, 4, 8)
WINDOW_S = 1.0


def test_fig8_search_thread_scaling(benchmark, scale):
    dataset = make_sift_like(scale.base_vectors, 0, dim=DIM, seed=5)
    queries = dataset.base[: scale.queries] + 0.01
    index = SPFreshIndex.build(dataset.base, config=spfresh_config())

    def measure(num_threads: int):
        stop = threading.Event()
        counts = [0] * num_threads

        def worker(slot: int):
            i = slot
            while not stop.is_set():
                index.query(QueryRequest.single(queries[i % len(queries)], k=10, nprobe=8))
                counts[slot] += 1
                i += num_threads

        io_before = index.ssd.stats.snapshot()
        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(num_threads)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        time.sleep(WINDOW_S)
        stop.set()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        window = index.ssd.stats.snapshot().delta(io_before)
        qps = sum(counts) / wall
        return qps, window.iops(wall)

    def experiment():
        return {n: measure(n) for n in THREAD_COUNTS}

    results = run_once(benchmark, experiment)

    rows = [
        (n, qps, iops, iops / qps if qps else 0.0)
        for n, (qps, iops) in results.items()
    ]
    print()
    print(
        format_table(
            ["search threads", "QPS (wall)", "device IOPS", "blocks/query"],
            rows,
            title="Figure 8 (reproduction): thread scaling",
        )
    )
    qps_by_n = {n: qps for n, (qps, _) in results.items()}
    # Shape: more threads never collapse throughput; IOPS tracks QPS.
    # (Wall-clock QPS on a shared machine is noisy — the factor is loose
    # enough to tolerate background load, tight enough to catch collapse.)
    assert qps_by_n[max(THREAD_COUNTS)] >= qps_by_n[1] * 0.55
    for n, (qps, iops) in results.items():
        assert iops >= qps  # every query reads at least one block
