"""The shard worker process: local kernels over shared-memory catalogs.

Each worker process hosts one or more shards.  At startup it attaches
the coordinator's shared-memory segments (zero-copy), rebuilds one
R-tree per hosted competitor shard plus the full product tree
(:meth:`RTree.bulk_load_block`), and then serves a small command
protocol over its spawn-context queues:

``skylines``
    Batched scatter requests: for each query point, compute the
    dominator skyline within every hosted shard and *pre-merge* them
    (:func:`merge_skylines` is associative) so the coordinator pays one
    IPC round per process, not per shard.
``topk_open`` / ``topk_next`` / ``topk_close``
    Progressive per-shard result streams for the scatter-gather top-k
    merge.  ``topk_next`` returns, per shard, a batch of sighted
    ``(cost, record_id)`` pairs plus the stream frontier — local costs
    are lower bounds on global costs because a shard holds a subset of
    the competitors, and every stream eventually enumerates *all*
    products (each worker indexes the full product catalog).
    ``topk_next`` carries a per-stream **sequence number** and the
    worker replays the cached reply when it sees the same sequence
    again, so a hedged or chaos-duplicated command advances the stream
    exactly once (idempotent by construction).

Commands that walk data (``skylines``, ``topk_next``) carry an optional
**budget** — the remaining fraction of the request's deadline, sent as
a relative duration because the coordinator's and worker's clocks share
a timebase but not an epoch meaning.  The worker converts it to a local
deadline and checks it between unit-of-work steps (per query point, per
stream result pull — each bounded by one R-tree node expansion), then
returns a *truncated-but-safe* reply: fewer rows, frontier still the
last emitted cost, ``exhausted`` still honest.  A truncated reply can
only make the coordinator's threshold merge stop earlier, never emit a
wrong row.
``mutate``
    Incremental R-tree maintenance mirroring a coordinator-side catalog
    mutation.  The resulting tree *structure* differs from a bulk load,
    but skylines and result streams are data-determined, so agreement
    with a fresh single-process engine is preserved.
``reload``
    Re-attach a replacement segment pair (capacity growth) and rebuild
    the affected tree from scratch.

Fork-safety: this module is imported in a *spawned* child, so it must
not create module-level locks or touch ``multiprocessing`` outside
:mod:`repro.shard.spawn` (the SKY801 lint rule enforces both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from queue import Empty
from typing import Dict, List, Optional, Tuple

from repro.core.dominators import get_dominating_skyline, merge_skylines
from repro.core.join import JoinUpgrader, MergeableResultStream
from repro.core.types import UpgradeConfig, UpgradeResult
from repro.core.upgrade import upgrade
from repro.costs.model import CostModel
from repro.obs import clock
from repro.rtree.tree import DEFAULT_MAX_ENTRIES, RTree
from repro.shard.memory import SegmentSpec, SharedBlock

Point = Tuple[float, ...]

#: ``topk_next`` reply rows: (shard, [(cost, record_id), ...], frontier,
#: exhausted).
ShardBatch = Tuple[int, List[Tuple[float, int]], float, bool]

#: Command-queue poll period: the worker wakes this often to notice a
#: torn-down queue instead of blocking forever (SKY901).
_CMD_POLL_S = 0.2


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker process needs to build its local state.

    Picklable by construction — it crosses the spawn boundary as the
    worker's startup argument and again on respawn after a crash.
    """

    proc: int
    shards: Tuple[int, ...]
    competitor_specs: Dict[int, SegmentSpec]
    product_spec: SegmentSpec
    dims: int
    cost_model: CostModel
    bound: str
    lbc_mode: str
    config: UpgradeConfig = field(default_factory=UpgradeConfig)
    max_entries: int = DEFAULT_MAX_ENTRIES
    method: str = "join"


def _build_tree(block: SharedBlock, dims: int, max_entries: int) -> RTree:
    """Rebuild a shard's R-tree from its shared columns (empty-safe)."""
    pb = block.as_block()
    if len(pb) == 0:
        return RTree(dims, max_entries=max_entries)
    return RTree.bulk_load_block(
        pb.data, pb.ids, max_entries=max_entries
    )


class _WorkerState:
    """Mutable per-process state behind the command loop."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.blocks: Dict[int, SharedBlock] = {}
        self.trees: Dict[int, RTree] = {}
        for shard, seg in spec.competitor_specs.items():
            block = SharedBlock.attach(seg)
            self.blocks[shard] = block
            self.trees[shard] = _build_tree(
                block, spec.dims, spec.max_entries
            )
        self.product_block = SharedBlock.attach(spec.product_spec)
        self.product_tree = _build_tree(
            self.product_block, spec.dims, spec.max_entries
        )
        # stream_id -> shard -> stream
        self.streams: Dict[int, Dict[int, MergeableResultStream]] = {}
        # stream_id -> (seq, payload): the idempotency cache a hedged
        # or duplicated ``topk_next`` replays instead of re-advancing.
        self.stream_replies: Dict[int, Tuple[int, object]] = {}

    # -- commands -------------------------------------------------------------

    def skylines(
        self, points: List[Point], deadline: Optional[float]
    ) -> Tuple[List[List[Point]], bool]:
        """Pre-merged dominator skylines for a batch of query points.

        Deadline truncation is all-or-nothing *per point* — a skyline
        computed over only some hosted shards would silently understate
        dominators, so an expired budget drops whole trailing points
        instead (the coordinator counts them as uncovered).
        """
        out: List[List[Point]] = []
        trees = list(self.trees.values())
        truncated = False
        for point in points:
            if deadline is not None and clock() >= deadline:
                truncated = True
                break
            out.append(
                merge_skylines(
                    [get_dominating_skyline(t, point) for t in trees]
                )
            )
        return out, truncated

    def topk_open(self, stream_id: int, method: str) -> None:
        self.stream_replies.pop(stream_id, None)
        spec = self.spec
        per_shard: Dict[int, MergeableResultStream] = {}
        for shard, tree in self.trees.items():
            if method == "probing":
                per_shard[shard] = self._probing_stream(tree)
            else:
                upgrader = JoinUpgrader(
                    tree,
                    self.product_tree,
                    spec.cost_model,
                    bound=spec.bound,
                    config=spec.config,
                    lbc_mode=spec.lbc_mode,
                )
                per_shard[shard] = upgrader.shard_stream()
        self.streams[stream_id] = per_shard

    def _probing_stream(self, tree: RTree) -> MergeableResultStream:
        """The probing-tier local stream: every product, locally costed.

        Materialized eagerly (probing has no progressive order of its
        own) and replayed in canonical ``(cost, record_id)`` order so the
        frontier semantics match the join stream's.
        """
        spec = self.spec
        results: List[UpgradeResult] = []
        for point, rid in self.product_tree.iter_points():
            skyline = get_dominating_skyline(tree, point)
            cost, upgraded = upgrade(
                skyline, point, spec.cost_model, spec.config
            )
            results.append(UpgradeResult(rid, point, upgraded, cost))
        results.sort(key=lambda r: (r.cost, r.record_id))
        return MergeableResultStream(iter(results))

    def topk_next(
        self,
        stream_id: int,
        seq: int,
        batch: int,
        deadline: Optional[float],
    ) -> Tuple[List[ShardBatch], bool]:
        cached = self.stream_replies.get(stream_id)
        if cached is not None and cached[0] == seq:
            return cached[1]  # hedged/duplicated command: replay
        expected = 0 if cached is None else cached[0] + 1
        if seq != expected:
            raise ValueError(
                f"stream {stream_id}: stale seq {seq} (expected {expected})"
            )
        reply: List[ShardBatch] = []
        truncated = False
        for shard, stream in self.streams[stream_id].items():
            pairs: List[Tuple[float, int]] = []
            if not stream.exhausted:
                pairs = [
                    (r.cost, r.record_id)
                    for r in stream.next_batch(batch, deadline=deadline)
                ]
            if (
                deadline is not None
                and not stream.exhausted
                and clock() >= deadline
            ):
                truncated = True
            reply.append(
                (shard, pairs, stream.frontier, stream.exhausted)
            )
        payload = (reply, truncated)
        self.stream_replies[stream_id] = (seq, payload)
        return payload

    def topk_close(self, stream_id: int) -> None:
        self.streams.pop(stream_id, None)
        self.stream_replies.pop(stream_id, None)

    def mutate(self, op: str, payload: tuple) -> None:
        """Apply one catalog mutation to the local indexes."""
        # Idempotent by construction: the new entry is deleted before it
        # is inserted, so a worker that *already* holds the mutation —
        # a respawn raced the command and rebuilt from the republished
        # segment — ends up with exactly one copy, not two.
        if op == "competitor_set":
            shard, rid, old, new = payload
            tree = self.trees[shard]
            if old is not None:
                tree.delete(old, rid)
            if new is not None:
                tree.delete(new, rid)
                tree.insert(new, rid)
        elif op == "product_set":
            rid, old, new = payload
            if old is not None:
                self.product_tree.delete(old, rid)
            if new is not None:
                self.product_tree.delete(new, rid)
                self.product_tree.insert(new, rid)
        else:
            raise ValueError(f"unknown mutation op: {op}")

    def reload(self, shard: Optional[int], seg: SegmentSpec) -> None:
        """Attach a replacement segment pair and rebuild its tree."""
        spec = self.spec
        if shard is None:
            self.product_block.close()
            self.product_block = SharedBlock.attach(seg)
            self.product_tree = _build_tree(
                self.product_block, spec.dims, spec.max_entries
            )
        else:
            self.blocks[shard].close()
            block = SharedBlock.attach(seg)
            self.blocks[shard] = block
            self.trees[shard] = _build_tree(
                block, spec.dims, spec.max_entries
            )

    def close(self) -> None:
        for block in self.blocks.values():
            block.close()
        self.product_block.close()


def _safe_payload(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# An uncaught exception would kill the process and turn a plain data
# error into a crash-containment event, so the loop reports everything.
# error-boundary: every worker failure becomes a typed error response
def shard_worker_main(spec: ShardSpec, commands, responses) -> None:
    """Worker process entry point (the spawn target).

    Protocol: every command is ``(op, req_id, *args)``; every reply is
    ``("ok", req_id, payload, fragments)`` or ``("error", req_id, text)``.
    ``fragments`` are retroactive trace spans — ``(name, t0, t1, attrs)``
    on the shared :data:`repro.obs.clock` timebase (``CLOCK_MONOTONIC``
    is system-wide on Linux) — that the coordinator replays into the
    request's trace via :meth:`Trace.record`.
    """
    try:
        state = _WorkerState(spec)
    except BaseException as exc:
        responses.put(("error", -1, _safe_payload(exc)))
        return
    responses.put(("ok", -1, ("ready", spec.proc), []))

    while True:
        try:
            # Bounded receive (SKY901): an unbounded get() would park
            # the worker unkillably-politely if the coordinator dies
            # without a shutdown; the poll keeps the loop responsive.
            cmd = commands.get(timeout=_CMD_POLL_S)
        except Empty:
            continue
        except (OSError, ValueError):
            return  # queue torn down under us: coordinator is gone
        op, req_id = cmd[0], cmd[1]
        fragments: List[tuple] = []
        try:
            if op == "skylines":
                points, traced, budget = cmd[2], cmd[3], cmd[4]
                deadline = clock() + budget if budget is not None else None
                t0 = clock()
                payload = state.skylines(points, deadline)
                if traced:
                    fragments.append(
                        (
                            "shard.skylines",
                            t0,
                            clock(),
                            {
                                "proc": spec.proc,
                                "shards": list(spec.shards),
                                "batch": len(points),
                                "computed": len(payload[0]),
                                "truncated": payload[1],
                            },
                        )
                    )
            elif op == "topk_open":
                state.topk_open(cmd[2], cmd[3])
                payload = None
            elif op == "topk_next":
                stream_id, seq, batch, traced, budget = (
                    cmd[2],
                    cmd[3],
                    cmd[4],
                    cmd[5],
                    cmd[6],
                )
                deadline = clock() + budget if budget is not None else None
                t0 = clock()
                payload = state.topk_next(stream_id, seq, batch, deadline)
                if traced:
                    fragments.append(
                        (
                            "shard.topk_next",
                            t0,
                            clock(),
                            {
                                "proc": spec.proc,
                                "seq": seq,
                                "rows": sum(
                                    len(rows)
                                    for _, rows, _, _ in payload[0]
                                ),
                                "truncated": payload[1],
                            },
                        )
                    )
            elif op == "topk_close":
                state.topk_close(cmd[2])
                payload = None
            elif op == "mutate":
                state.mutate(cmd[2], cmd[3])
                payload = None
            elif op == "reload":
                state.reload(cmd[2], cmd[3])
                payload = None
            elif op == "ping":
                payload = ("pong", spec.proc)
            elif op == "shutdown":
                state.close()
                responses.put(("ok", req_id, None, []))
                return
            else:
                raise ValueError(f"unknown worker command: {op}")
        except BaseException as exc:
            responses.put(("error", req_id, _safe_payload(exc)))
            continue
        responses.put(("ok", req_id, payload, fragments))
