"""Outside-in span tracer for the ``--trace 1`` run.

Spans are recorded from the benchmark's own files: after an index is
built the driver replaces, on the instances it owns, the bound public
methods at each layer boundary with a wrapper that records name, start,
end, parent span and the driving op. Nothing under ``src/`` is touched.
Spans stay in memory until the run ends.

A layer's *self time* is its spans' duration minus the part covered by
their child spans; per-layer self times plus the unaccounted remainder
(driver + facade glue) add up to the time of the driving ops.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (attribute path on an SPFreshIndex, span-name prefix, methods to wrap).
# Methods a given instance lacks (exact codec vs. sectioned codec) are
# skipped.
INDEX_POINTS = (
    ("centroid_index", "centroids", ("search", "search_batch", "add", "remove")),
    ("searcher", "searcher", ("search", "search_many")),
    (
        "controller",
        "controller",
        (
            "get",
            "parallel_get",
            "parallel_get_codes",
            "parallel_get_vector_rows",
            "append",
            "put",
            "create",
            "delete",
        ),
    ),
    (
        "controller.codec",
        "layout",
        (
            "encode",
            "encode_codes_section",
            "encode_vectors_section",
            "decode",
            "decode_batch",
            "decode_codes",
            "decode_codes_batch",
            "decode_vector_block",
        ),
    ),
    ("ssd", "ssd", ("read_blocks", "write_blocks")),
    ("wal", "wal", ("log_insert", "log_delete")),
    ("updater", "updater", ("insert", "delete")),
    ("rebuilder", "rebuilder", ("drain", "process")),
    ("version_map", "version_map", ("live_mask",)),
    ("fresh_tier", "fresh_tier", ("add", "live_snapshot", "take")),
    ("quantizer", "quantize", ("distance_tables", "encode")),
)
CONTROLLER_READS = ("get", "parallel_get", "parallel_get_codes", "parallel_get_vector_rows")
ROW_COUNTED = ("quantize.encode",)  # spans that also count len(args[0])


class Tracer:
    """In-memory span recorder; single-threaded by construction.

    Spans are stored as five parallel columns of scalars, so a few hundred
    thousand of them add nothing for the garbage collector to walk.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # enclosing span, -1 for a root
        self.ops: list[int] = []  # root span of the driving op
        self.rows: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._op = -1

    def _open(self, name: str, parent: int, op: int) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def wrap(self, name: str, fn):
        ends, stack, clock = self.ends, self._stack, time.perf_counter
        count_rows = name in ROW_COUNTED

        def traced(*args, **kwargs):
            if count_rows:
                self.rows[name] += len(args[0])
            index = self._open(name, stack[-1], self._op)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.is_span_wrapper = True
        return traced

    def attach(self, obj, prefix: str, methods) -> None:
        """Shadow ``obj``'s bound methods with traced instance attributes.

        A method already shadowed is left alone: device and log outlive a
        crash and reach the recovered index already wrapped.
        """
        for method in methods:
            fn = getattr(obj, method, None)
            if fn is not None and not hasattr(fn, "is_span_wrapper"):
                setattr(obj, method, self.wrap(f"{prefix}.{method}", fn))

    def begin_op(self, name: str) -> None:
        """Open the root span of one driving op (closed by :meth:`end_op`)."""
        self._op = len(self.names)
        self._open(name, -1, self._op)

    def end_op(self) -> None:
        self.ends[self._op] = time.perf_counter()
        self._stack.pop()
        self._op = -1

    def span_cost_s(self, samples: int = 4000, repeats: int = 5) -> float:
        """Host cost of recording one span: a traced no-op against a bare
        one, quietest of ``repeats`` measurements."""

        def noop():
            return None

        traced = Tracer().wrap("calibration", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            start = clock()
            for _ in range(samples):
                noop()
            bare = clock() - start
            start = clock()
            for _ in range(samples):
                traced()
            costs.append((clock() - start - bare) / samples)
        return max(0.0, min(costs))

    def write_jsonl(self, path) -> None:
        columns = zip(self.names, self.starts, self.ends, self.parents, self.ops)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(columns):
                out.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def instrument(tracer: Tracer, facade) -> None:
    """Wrap the layer boundaries of a facade and of every index behind it.

    Safe to call again after a recovery: objects already wrapped are
    skipped, new ones (a recovered index, a resynced replica) are wrapped.
    """
    if not hasattr(facade, "groups"):
        _instrument_index(tracer, facade, "index.query")
        return
    for group in facade.groups:
        for replica in group.replicas:
            _instrument_index(tracer, replica, "cluster.shard")
    if not hasattr(facade, "_e2e_traced"):
        facade._e2e_traced = True
        tracer.attach(facade.placement, "cluster", ("shards_for_queries",))
        facade.query = tracer.wrap("cluster.query", facade.query)


def _instrument_index(tracer: Tracer, index, query_span: str) -> None:
    if hasattr(index, "_e2e_traced"):
        return
    index._e2e_traced = True
    for path, prefix, methods in INDEX_POINTS:
        obj = index
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                break
        if obj is not None:
            tracer.attach(obj, prefix, methods)
    index.query = tracer.wrap(query_span, index.query)
    index.checkpoint = tracer.wrap("snapshot.checkpoint", index.checkpoint)


class SpanSummary:
    """Per-name call counts, inclusive and self time, plus op totals."""

    def __init__(self, tracer: Tracer) -> None:
        names, parents, ops = tracer.names, tracer.parents, tracer.ops
        durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
        child_s = [0.0] * len(names)
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                child_s[parent] += duration
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # Inclusive time of each span name split by the kind of driving op.
        self.total_by_op: dict[tuple, float] = defaultdict(float)
        for name, duration, below, op in zip(names, durations, child_s, ops):
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - below
            self.total_by_op[(name, names[op])] += duration
        self.op_s = sum(d for d, parent in zip(durations, parents) if parent < 0)
        self.count = len(names)

    @staticmethod
    def _of_layer(per_name: dict, prefix: str, methods):
        return sum(
            value
            for name, value in per_name.items()
            if name.startswith(prefix + ".")
            and (methods is None or name.split(".", 1)[1] in methods)
        )

    def layer_self(self, prefix: str, methods=None) -> float:
        """Self time of every span of a layer (optionally some methods)."""
        return self._of_layer(self.self_s, prefix, methods)

    def layer_calls(self, prefix: str, methods=None) -> int:
        return self._of_layer(self.calls, prefix, methods)

    def calls_starting(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))
