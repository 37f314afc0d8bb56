"""Per-layer spans for the traced run, recorded from outside the program.

:class:`SpanLog` replaces a fixed list of the program's public entry
points (class methods, and module functions *where their callers look
them up*) with thin wrappers.  Every call records one span
``[name, start, end, parent, op]`` on a per-thread stack, so work done
on the engine's pool threads nests correctly.  Spans stay in memory
until the run ends; :func:`self_times` then charges each span its
duration minus the part its wrapped children cover.

Nothing here changes what the program computes: a wrapper calls the
original with the same arguments and returns its result unchanged.
:meth:`SpanLog.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

NO_OP = -1

#: (span name, module, attribute path).  An attribute path with a dot is
#: a class method; without one, a module-level name as its caller sees
#: it — ``upgrade`` is imported by name into four modules, so it is
#: patched in each of them.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    # serve: the engine's per-request entry on pool threads, and caches
    ("serve.engine", "repro.serve.engine", "UpgradeEngine._serve_product"),
    ("serve.cache", "repro.serve.cache", "SkylineCache.get"),
    ("serve.cache", "repro.serve.cache", "SkylineCache.put"),
    ("serve.cache", "repro.serve.cache", "SkylineCache.invalidate_point"),
    ("serve.cache", "repro.serve.cache", "TopKCache.get"),
    ("serve.cache", "repro.serve.cache", "TopKCache.put"),
    # plan
    ("plan", "repro.plan.planner", "Planner.plan"),
    ("plan", "repro.plan.planner", "Planner.observe"),
    # core: session mutators, join, probing, Algorithm 1, dominators
    ("core.session", "repro.core.session", "MarketSession.add_competitor"),
    ("core.session", "repro.core.session", "MarketSession.remove_competitor"),
    ("core.join", "repro.core.join", "JoinUpgrader.results"),
    ("core.probing", "repro.serve.engine", "improved_probing"),
    ("core.upgrade", "repro.core.join", "upgrade"),
    ("core.upgrade", "repro.core.probing", "upgrade"),
    ("core.upgrade", "repro.serve.engine", "upgrade"),
    ("core.upgrade", "repro.shard.engine", "upgrade"),
    ("core.dominators", "repro.core.session", "get_dominating_skyline"),
    ("core.dominators", "repro.core.probing", "get_dominating_skyline"),
    ("core.dominators", "repro.core.join", "get_dominating_skyline_multi"),
    ("core.dominators", "repro.shard.engine", "merge_skylines"),
    ("skyline.bbs", "repro.core.dominators", "_traverse"),
    ("skyline.bbs", "repro.core.probing", "bbs_skyline"),
    # kernels
    ("kernels", "repro.core.upgrade", "upgrade_kernel"),
    ("kernels", "repro.core.join", "dominated_mask"),
    ("kernels", "repro.core.join", "dominating_mask"),
    ("kernels", "repro.core.probing", "dominating_mask"),
    ("kernels", "repro.plan.planner", "dominating_mask"),
    ("kernels", "repro.core.bounds", "pair_bounds_block"),
    # costs
    ("costs", "repro.costs.model", "CostModel.product_cost"),
    ("costs", "repro.costs.model", "CostModel.vector_product_cost"),
    # rtree
    ("rtree.insert", "repro.rtree.tree", "RTree.insert"),
    ("rtree.delete", "repro.rtree.tree", "RTree.delete"),
    ("rtree.query", "repro.core.session", "intersects_dominance_region"),
    ("rtree.query", "repro.core.probing", "range_query"),
    # reliability
    ("reliability.guard", "repro.serve.engine", "UpgradeEngine._oracle_topk"),
    (
        "reliability.guard",
        "repro.serve.engine",
        "UpgradeEngine._guarded_product_result",
    ),
    (
        "reliability.validate_indexes",
        "repro.core.session",
        "MarketSession.validate_indexes",
    ),
    # shard
    ("shard.submit", "repro.shard.client", "ShardProcess.submit"),
    ("shard.rpc_wait", "repro.shard.engine", "scatter"),
    ("shard.rpc_wait", "repro.shard.client", "PendingReply.result"),
    ("shard.merge", "repro.shard.merge", "ThresholdMerge.observe"),
    ("shard.merge", "repro.shard.merge", "ThresholdMerge.add_candidate"),
    ("shard.merge", "repro.shard.merge", "ThresholdMerge.abandon"),
    ("shard.merge", "repro.shard.merge", "ThresholdMerge.mark_down"),
    ("shard.merge", "repro.shard.merge", "ThresholdMerge.drain"),
    ("shard.publish", "repro.shard.memory", "SharedBlock.publish"),
)

#: Entry points the trees call through a table built at import time.
SPLIT_TABLE = ("repro.rtree.split", "SPLIT_FUNCTIONS", "quadratic")

#: Generator methods: each ``next()`` on the result is one span.
GENERATORS = {("repro.core.join", "JoinUpgrader.results")}

#: The kernel guard's reruns: every span opened inside one is guard time.
GUARD = "reliability.guard"

#: The engine method whose pool-thread span is bound to a submitted op.
POOL_ENTRY = ("repro.serve.engine", "UpgradeEngine._serve_product")


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.spans: Optional[List[list]] = None
        self.calls: Dict[str, int] = defaultdict(int)
        self.stack: List[int] = []
        self.op = NO_OP


class SpanLog:
    """In-memory span recorder with per-thread stacks."""

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._threads: List[Tuple[List[list], Dict[str, int]]] = (
            []
        )  # guarded-by: _lock
        self._patches: List[Tuple[object, str, object]] = []
        self._query_ops: Dict[int, int] = {}
        self._layer_of: Dict[str, str] = {}

    # -- recording -------------------------------------------------------------

    def _spans(self) -> List[list]:
        state = self._state
        if state.spans is None:
            state.spans = []
            with self._lock:
                self._threads.append((state.spans, state.calls))
        return state.spans

    def set_op(self, op: int) -> None:
        """Charge spans opened on this thread from now on to ``op``."""
        self._state.op = op

    def bind_query(self, query: object, op: int) -> None:
        """Charge the pool-thread work that serves ``query`` to ``op``.

        Keyed on the query object's identity: the caller keeps the query
        alive until its response arrives, so the key is not reused.
        """
        self._query_ops[id(query)] = op

    def open(self, name: str) -> list:
        spans = self._spans()
        stack = self._state.stack
        rec = [
            name,
            time.perf_counter(),
            0.0,
            stack[-1] if stack else -1,
            self._state.op,
        ]
        stack.append(len(spans))
        spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._state.stack.pop()

    # -- patching --------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, key: str) -> Callable:
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = log.open(name)
            log._state.calls[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(rec)

        return wrapper

    def _wrap_pool_entry(self, name: str, fn: Callable, key: str) -> Callable:
        log = self

        @functools.wraps(fn)
        def wrapper(engine, pending, *args, **kwargs):
            state = log._state
            outer = state.op
            state.op = log._query_ops.get(id(pending.query), outer)
            rec = log.open(name)
            state.calls[key] += 1
            try:
                return fn(engine, pending, *args, **kwargs)
            finally:
                log.close(rec)
                state.op = outer

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable, key: str) -> Callable:
        log = self

        def stepped(gen):
            while True:
                rec = log.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    log.close(rec)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log._spans()
            log._state.calls[key] += 1
            return stepped(fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        """Patch every hook (idempotence is the caller's job)."""
        for name, module_name, path in HOOKS:
            module = importlib.import_module(module_name)
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[attr] if owner is not module else (
                getattr(module, attr)
            )
            key = f"{module_name}:{path}"
            self._layer_of[key] = name
            if (module_name, path) == POOL_ENTRY:
                wrapped = self._wrap_pool_entry(name, original, key)
            elif (module_name, path) in GENERATORS:
                wrapped = self._wrap_generator(name, original, key)
            else:
                wrapped = self._wrap(name, original, key)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))
        module_name, table_name, entry = SPLIT_TABLE
        table = getattr(importlib.import_module(module_name), table_name)
        original = table[entry]
        key = f"{module_name}:{table_name}[{entry!r}]"
        self._layer_of[key] = "rtree.split"
        table[entry] = self._wrap("rtree.split", original, key)
        self._patches.append((table, entry, original))

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def threads(self) -> List[List[list]]:
        with self._lock:
            return [spans for spans, _ in self._threads]

    def hook_calls(self) -> Dict[str, int]:
        """Calls per patched entry point (``module:path``), all threads."""
        total = dict.fromkeys(self._layer_of, 0)
        with self._lock:
            for _, calls in self._threads:
                for key, n in calls.items():
                    total[key] += n
        return total

    def layer_calls(self) -> Dict[str, int]:
        """Calls per layer (span name), all threads."""
        total: Dict[str, int] = defaultdict(int)
        for key, n in self.hook_calls().items():
            total[self._layer_of[key]] += n
        return dict(total)

    def write(self, path: str) -> int:
        """Write every span as gzip'd CSV; returns the span count."""
        n = 0
        with gzip.open(path, "wt") as out:
            out.write("thread,index,name,start,end,parent,op\n")
            for t, spans in enumerate(self.threads()):
                for i, (name, start, end, parent, op) in enumerate(spans):
                    out.write(
                        f"{t},{i},{name},{start:.9f},{end:.9f},"
                        f"{parent},{op}\n"
                    )
                    n += 1
        return n


def self_times(
    log: SpanLog, op_kind: Callable[[int], str]
) -> Tuple[Dict[Tuple[str, str], float], Dict[int, Dict[str, float]]]:
    """Self time per ``(span name, op kind)`` and span time per op.

    A span's self time is its duration minus the durations of its direct
    children: children run on the parent's thread, strictly inside it,
    so they never overlap one another.  A :data:`GUARD` span is the
    exception: the join, Algorithm 1 and kernel calls of its scalar
    rerun are guard time, so its self time is its whole duration and the
    spans inside it are charged nowhere else.

    Returns ``(by_kind, by_op)``: ``by_kind[(name, kind)]`` is total self
    seconds; ``by_op[op][name]`` is total (inclusive) seconds of spans of
    ``name`` opened under ``op``.
    """
    by_kind: Dict[Tuple[str, str], float] = defaultdict(float)
    by_op: Dict[int, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for spans in log.threads():
        selfs = [end - start for _, start, end, _, _ in spans]
        guarded = [False] * len(spans)  # opened inside a guard span
        for i, (name, start, end, parent, op) in enumerate(spans):
            if parent >= 0:
                guarded[i] = guarded[parent] or spans[parent][0] == GUARD
                if not guarded[i]:
                    selfs[parent] -= end - start
            by_op[op][name] += end - start
        for (name, _, _, _, op), own, inside in zip(spans, selfs, guarded):
            if not inside:
                by_kind[(name, op_kind(op))] += own
    return by_kind, by_op
