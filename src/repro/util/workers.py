"""The repo's one worker pool: K workers, each owning one state.

Worker ``w`` holds ``states[w]`` and answers ``fn(states[w], job)`` on a
forked process (``fork=True``) or a thread (``fork=False``). Both
wall-clock fan-outs run on it: a cluster query over its shard groups
(``ClusterSPFresh.worker_pool``) and the replay of a served batch
schedule (``repro.serving.replay_pool``).

A forked worker inherits its state by address-space copy — nothing is
pickled but jobs and answers — and keeps answering from *fork-time*
state whatever the parent does afterwards. That is only sound for
indexes without live background threads (a fork would duplicate them
mid-state), which the constructor enforces; without the ``fork`` start
method it raises and callers fall back to threads. Thread workers share
their state with the caller; numpy kernels release the GIL, so scans
overlap. Workers are daemonic: a crashed parent cannot leak them.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in mp.get_all_start_methods()


def run_serial(states, fn, jobs: dict) -> dict:
    """In-process twin of :meth:`WorkerPool.run`: the parity baseline."""
    return {w: fn(states[w], jobs[w]) for w in sorted(jobs)}


def _indexes_behind(state):
    """``state`` plus the replicas of the shard group(s) it holds, if any."""
    yield state
    for group in getattr(state, "groups", None) or (state,):
        yield from getattr(group, "replicas", ())


def _worker_loop(state, fn, recv, send) -> None:
    """Answer ``(job,)`` messages until ``None``; an error is an answer."""
    while (message := recv()) is not None:
        try:
            outcome = (True, fn(state, message[0]))
        except Exception as exc:  # handed to the caller, who raises it
            outcome = (False, exc)
        try:
            send(outcome)
        except Exception as exc:  # the outcome itself would not pickle
            send((False, RuntimeError(f"worker answer was not sent: {exc!r}")))


class WorkerPool:
    """One persistent worker per state, forked or threaded."""

    def __init__(self, states, fn, *, fork: bool) -> None:
        states = list(states)
        if not states:
            raise ValueError("a worker pool needs at least one worker")
        if fork and not fork_available():
            raise RuntimeError(
                "fork=True needs the 'fork' start method; use fork=False "
                "(threads) on this platform"
            )
        if fork and any(
            getattr(index, "_background_running", False)
            for state in states
            for index in _indexes_behind(state)
        ):
            raise RuntimeError(
                "cannot fork an index with live background workers; build "
                "with synchronous_rebuild=True (the default) or stop() "
                "workers first"
            )
        self._send, self._recv = [], []  # per worker, the caller's ends
        self._workers = []
        self._conns = []  # parent pipe ends, forked workers only
        ctx = mp.get_context("fork") if fork else None
        for state in states:
            if fork:
                conn, child = ctx.Pipe()
                worker = ctx.Process(
                    target=_worker_loop,
                    args=(state, fn, child.recv, child.send),
                    daemon=True,
                )
                worker.start()
                child.close()
                self._conns.append(conn)
                send, recv = conn.send, conn.recv
            else:
                inbox, outbox = queue.SimpleQueue(), queue.SimpleQueue()
                worker = threading.Thread(
                    target=_worker_loop,
                    args=(state, fn, inbox.get, outbox.put),
                    daemon=True,
                )
                worker.start()
                send, recv = inbox.put, outbox.get
            self._send.append(send)
            self._recv.append(recv)
            self._workers.append(worker)
        self._closed = False

    def __len__(self) -> int:
        return len(self._workers)

    def run(self, jobs: dict) -> dict:
        """Answer ``{worker: job}`` as ``{worker: fn(states[worker], job)}``.

        Every job is sent before any answer is received, so the workers
        overlap, and every answer is received before the first failed
        job's exception is raised, so the pool stays usable after one.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        order = sorted(jobs)
        for w in order:
            self._send[w]((jobs[w],))
        outcomes = [self._recv[w]() for w in order]
        for ok, value in outcomes:
            if not ok:
                raise value
        return {w: value for w, (_, value) in zip(order, outcomes)}

    def close(self) -> None:
        """Stop every worker. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for send in self._send:
            try:
                send(None)
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            conn.close()
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive() and hasattr(worker, "terminate"):
                worker.terminate()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
