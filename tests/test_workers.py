"""Contract tests for the one worker pool (``repro.util.workers``).

Every case runs on threads and, where the platform can fork, on forked
processes: the two are one contract. The cluster and serving layers'
use of the pool is tested where they live (test_cluster.py,
test_serving_concurrent.py).
"""

import multiprocessing
import threading
from types import SimpleNamespace

import pytest

from repro.util.workers import WorkerPool, run_serial
from tests.helpers import EXECUTORS

pytestmark = pytest.mark.parametrize("fork", EXECUTORS)


def scale(state, job):
    """The job function of these tests: worker state times the job."""
    if job == "boom":
        raise KeyError(f"worker {state} exploded")
    if job == "unpicklable":
        return threading.Lock()
    return state * job


STATES = [1, 10, 100]


class TestRun:
    def test_parity_with_serial_twin(self, fork):
        jobs = {0: 2, 1: 3, 2: 4}
        with WorkerPool(STATES, scale, fork=fork) as pool:
            assert len(pool) == 3
            assert pool.run(jobs) == run_serial(STATES, scale, jobs)
            # A warm second pass over the same workers answers the same.
            assert pool.run(jobs) == {0: 2, 1: 30, 2: 400}

    def test_jobs_may_skip_workers(self, fork):
        with WorkerPool(STATES, scale, fork=fork) as pool:
            assert pool.run({2: 5}) == {2: 500}
            assert pool.run({}) == {}

    def test_workers_really_overlap(self, fork):
        # Every job blocks until all three are running: this only returns
        # if all sends go out before the first receive.
        barrier = (
            multiprocessing.get_context("fork").Barrier(3)
            if fork
            else threading.Barrier(3)
        )
        with WorkerPool(
            STATES, lambda state, job: barrier.wait(timeout=10) >= 0, fork=fork
        ) as pool:
            assert pool.run({0: None, 1: None, 2: None}) == {
                0: True,
                1: True,
                2: True,
            }

    def test_job_error_surfaces_and_worker_survives(self, fork):
        with WorkerPool(STATES, scale, fork=fork) as pool:
            with pytest.raises(KeyError, match="worker 10 exploded"):
                pool.run({0: 1, 1: "boom", 2: 1})
            # Worker 1 is still there, and nobody is an answer behind.
            assert pool.run({0: 1, 1: 1, 2: 1}) == {0: 1, 1: 10, 2: 100}

    def test_fork_states_are_fork_time_copies(self, fork):
        state = [1]

        def head(state, job):
            return state[0]

        with WorkerPool([state], head, fork=fork) as pool:
            state[0] = 2
            assert pool.run({0: None}) == {0: 1 if fork else 2}


class TestLifecycle:
    def test_closed_pool_rejects_work(self, fork):
        pool = WorkerPool(STATES, scale, fork=fork)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.run({0: 1})

    def test_context_manager_stops_the_workers(self, fork):
        with WorkerPool(STATES, scale, fork=fork) as pool:
            workers = list(pool._workers)
            assert all(w.is_alive() for w in workers)
        assert not any(w.is_alive() for w in workers)

    def test_needs_a_worker(self, fork):
        with pytest.raises(ValueError):
            WorkerPool([], scale, fork=fork)

    def test_fork_refuses_live_background_workers(self, fork):
        # However deep the index sits: bare, in a shard group, or in the
        # groups of a cluster facade.
        busy = SimpleNamespace(_background_running=True)
        group = SimpleNamespace(replicas=[SimpleNamespace(), busy])
        facade = SimpleNamespace(groups=[SimpleNamespace(replicas=[]), group])
        for state in (busy, group, facade):
            if not fork:
                WorkerPool([state], scale, fork=False).close()
                continue
            with pytest.raises(RuntimeError, match="background"):
                WorkerPool([state], scale, fork=True)


def test_unsendable_answer_is_an_error_not_a_dead_worker(fork):
    if not fork:
        pytest.skip("threads send nothing over a pipe")
    with WorkerPool(STATES, scale, fork=True) as pool:
        with pytest.raises(RuntimeError, match="not sent"):
            pool.run({0: "unpicklable"})
        assert pool.run({0: 3}) == {0: 3}
