"""The sharded executor: competitor shards in worker processes.

:class:`ShardExecutor` is what :class:`~repro.serve.engine.UpgradeEngine`
runs queries on when ``EngineConfig.processes > 0``.  The engine front
end (admission, pool, caches, deadlines, retries, guards, tracing,
metrics) is the same as in-process; the executor hides everything about
the process fleet behind the seam the front end drives:

* **Shared-memory catalogs** — every shard's columnar
  :class:`~repro.kernels.block.PointBlock` lives in POSIX shared memory
  (:mod:`repro.shard.memory`); workers attach zero-copy and rebuild
  their shard R-trees locally with the
  :meth:`~repro.rtree.tree.RTree.bulk_load_block` fast path.
* **Shard sync on mutation** — a mutation republishes and version-bumps
  *only the owning shard's* segment (plus an idempotent incremental
  index op in the live worker); the cache epoch is the vector
  ``(e_0, …, e_{S-1}, product_epoch)``, so the front end's precise
  invalidation carries over unchanged.
* **Scatter-gather** — :meth:`ShardExecutor.dominator_skyline` scatters
  one batched skyline request and merges with
  :func:`~repro.core.dominators.merge_skylines` (bit-identical to a
  single-process traversal); a top-k run (:class:`_ShardTopK`) streams
  every shard progressively and merges under the threshold rule of
  :class:`~repro.shard.merge.ThresholdMerge`, emitting the canonical
  global ``(cost, record_id)`` order with early termination.
* **Degraded mode** (:mod:`repro.shard.resilience`) — every shard RPC
  carries the request's remaining deadline budget, stragglers are
  hedged, per-process circuit breakers skip flapping workers, and a
  killed worker fails its in-flight RPCs with a typed error and is
  respawned from the current segment specs.  Missing shards lower the
  run's ``coverage``; a sighting whose skyline came back short of the
  live shards *holds* the merge, so what was emitted stays an exact
  prefix (``exact`` is then False and the answer is labelled partial).

Coordinator-side exact costs: a sighted product's global cost is
computed by merging its per-process skylines and running Algorithm 1
(:func:`~repro.core.upgrade.upgrade`) once — the merged skyline is in
the canonical ``(sum, lex)`` order, so the upgraded point is
bit-identical to the single-process answer even at sort ties.  The
planner runs only in-process: workers run the fixed join unless
``config.method="probing"``.

Lock order (witnessed under ``SKYUP_LOCK_WITNESS=1``): ``engine._rw`` →
``ShardProcess._lock``; the monitor thread takes only the handle lock,
and the resilience supervisor takes only handle and breaker locks
(breaker/hedge locks are leaves — nothing is acquired under them).

:data:`ShardedUpgradeEngine` is the engine class itself, kept as the
name the sharded tier has always been built by.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.dominators import merge_skylines
from repro.core.session import MutationEvent
from repro.core.types import UpgradeResult
from repro.core.upgrade import upgrade
from repro.exceptions import EngineClosedError, WorkerCrashError
from repro.instrumentation import Counters
from repro.obs import Trace, clock, current_trace
from repro.serve.engine import Epoch, PendingQuery, UpgradeEngine
from repro.shard.client import ShardProcess
from repro.shard.memory import SharedBlock, padded_capacity
from repro.shard.merge import ThresholdMerge
from repro.shard.partition import (
    partition_members,
    process_of,
    shard_of,
    shards_of_process,
)
from repro.shard.resilience import ShardResilience, scatter
from repro.shard.worker import ShardSpec

Point = Tuple[float, ...]

#: Per-engine namespace for segment names: unique within the machine as
#: long as the coordinator process lives (pid) and across engines in the
#: same process (counter).
_ENGINE_SEQ = itertools.count()

#: Rows pulled per shard per merge round.  Small enough to keep early
#: termination early, large enough to amortize the IPC round.
_STREAM_BATCH = 16

#: Deadline for worker acks on the mutation path (mutations are
#: memcpy-scale; a worker that cannot ack in this long is wedged).
_MUTATE_TIMEOUT_S = 60.0


def _remaining(pendings: Sequence[PendingQuery]) -> Optional[float]:
    """Longest remaining deadline budget (None = no deadline)."""
    deadlines = [p.abs_deadline for p in pendings]
    if not deadlines or any(d is None for d in deadlines):
        return None
    return max(0.001, max(deadlines) - time.monotonic())


class ShardExecutor:
    """The worker-process fleet behind one sharded engine.

    Args:
        engine: the owning front end.  Its session is the authoritative
            market state (partitioned here at start), its ``_rw`` lock
            guards the segment state, and its skyline cache (with the
            ``serve.cache`` fault point) backs sighting costs.
    """

    sharded = True

    def __init__(self, engine: UpgradeEngine):
        self._engine = engine
        self.session = session = engine.session
        self.config = config = engine.config
        self.n_processes = config.processes
        self.n_shards = config.shards or self.n_processes
        self._ns = f"skyup{os.getpid()}x{next(_ENGINE_SEQ)}"
        self._segment_serial = itertools.count()
        self._stream_ids = itertools.count(1)

        # Snapshot, partition, and publish the catalogs.
        cids, cpoints = session.competitors_by_id()
        buckets = partition_members(
            dict(zip(cids, cpoints)), self.n_shards
        )
        self._shard_members: List[Dict[int, Point]] = [  # guarded-by: _rw
            dict(zip(ids, points)) for ids, points in buckets
        ]
        self._shard_epochs: List[int] = [0] * self.n_shards  # guarded-by: _rw
        self._shard_blocks: List[SharedBlock] = []  # guarded-by: _rw
        for ids, points in buckets:
            block = SharedBlock.create(
                self._segment_name(),
                session.dims,
                padded_capacity(len(ids)),
            )
            block.publish(points, ids)
            self._shard_blocks.append(block)
        pids, ppoints = session.products_by_id()
        self._product_members: Dict[int, Point] = dict(  # guarded-by: _rw
            zip(pids, ppoints)
        )
        self._product_block = SharedBlock.create(  # guarded-by: _rw
            self._segment_name(),
            session.dims,
            padded_capacity(len(pids)),
        )
        self._product_block.publish(ppoints, pids)

        # Spawn the fleet; on any start failure release what exists.
        self._handles: List[ShardProcess] = []
        started = False
        try:
            for proc in range(self.n_processes):
                handle = ShardProcess(proc, self._spec_factory(proc))
                handle.start()
                self._handles.append(handle)
            started = True
        finally:
            if not started:
                for handle in self._handles:
                    handle.close()
                self._teardown_shared_state()

        self._rpc_timeout_s = config.shard_rpc_timeout_s
        self._resilience = ShardResilience(
            self._handles,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown_s=config.breaker_cooldown_s,
            hedge_delay_s=config.hedge_delay_s,
            health_interval_s=config.health_interval_s,
        )
        self._resilience.start()

    # -- topology / lifecycle --------------------------------------------------

    def _segment_name(self) -> str:
        return f"{self._ns}g{next(self._segment_serial)}"

    def _spec_factory(self, proc: int):
        """A zero-argument factory returning the proc's *current* spec.

        Called at initial start and again on every crash respawn, so the
        respawned worker always rebuilds from the live segment specs.
        """

        def factory() -> ShardSpec:
            shards = shards_of_process(
                proc, self.n_shards, self.n_processes
            )
            # Benign race: the respawn supervisor reads the *current*
            # specs without the catalog lock.  A read torn against a
            # concurrent republish is reconciled by the idempotent
            # incremental op / reload the mutator sends afterwards.
            return ShardSpec(
                proc=proc,
                shards=tuple(shards),
                competitor_specs={
                    # skyup: ignore[SKY101]
                    s: self._shard_blocks[s].spec for s in shards
                },
                product_spec=self._product_block.spec,  # skyup: ignore[SKY101]
                dims=self.session.dims,
                cost_model=self.session.cost_model,
                bound=self.session.bound,
                lbc_mode="corrected",
                config=self.session.config,
                max_entries=self.session.competitor_index.max_entries,
                method=self.config.method,
            )

        return factory

    @property
    def _rw(self):
        """The engine's readers-writer lock: it guards the segments."""
        return self._engine._rw

    def epoch(self) -> Epoch:  # holds-lock: _rw[read]
        """``(e_0, …, e_{S-1}, product_epoch)`` — the cache epoch."""
        return (*self._shard_epochs, self.session.product_epoch)

    def close(self, timeout: float) -> None:
        """Stop the supervisor, the workers, and shared memory."""
        self._resilience.stop()
        for handle in self._handles:
            handle.close(timeout_s=timeout)
        self._teardown_shared_state()

    def _teardown_shared_state(self) -> None:
        # Lock-free on purpose: runs after the pool and every worker are
        # stopped, so no mutator or reader can be concurrent with it.
        # skyup: ignore[SKY101]
        for block in self._shard_blocks:
            block.close()
            block.unlink()
        self._product_block.close()  # skyup: ignore[SKY101]
        self._product_block.unlink()  # skyup: ignore[SKY101]

    # -- shard sync (exclusive) ------------------------------------------------

    # holds-lock: _rw[write]
    def on_mutation(self, event: MutationEvent) -> None:
        """Shard synchronization, inside the mutating caller's write lock.

        (1) Rewrite the owning shard's shared segment in place (eager
        republish, so a respawn at any moment rebuilds consistent
        state), (2) bump that shard's epoch, and (3) send an idempotent
        incremental index op to the live worker — the worker's tree
        *structure* now differs from a bulk load, but skylines and
        streams are data-determined, so answers are unaffected.
        """
        if event.side == "competitor":
            shard = shard_of(event.record_id, self.n_shards)
            members = self._shard_members[shard]
            if event.action == "add":
                old, new = None, event.point
                members[event.record_id] = event.point
            else:
                old, new = event.point, None
                members.pop(event.record_id, None)
            reloaded = self._republish_shard(shard)
            self._shard_epochs[shard] += 1
            if not reloaded:
                owner = self._handles[
                    process_of(shard, self.n_processes)
                ]
                self._send_sync(
                    owner,
                    "mutate",
                    "competitor_set",
                    (shard, event.record_id, old, new),
                )
        else:
            if event.action == "add":
                old, new = None, event.point
            elif event.action == "remove":
                old, new = event.point, None
            else:  # upgrade: point replacement
                old, new = event.old_point, event.point
            if new is None:
                self._product_members.pop(event.record_id, None)
            else:
                self._product_members[event.record_id] = new
            reloaded = self._republish_product()
            if not reloaded:
                for handle in self._handles:
                    self._send_sync(
                        handle,
                        "mutate",
                        "product_set",
                        (event.record_id, old, new),
                    )

    # holds-lock: _rw[write]
    def _republish_shard(self, shard: int) -> bool:
        """Rewrite the shard's segment; True if it had to grow (reload).

        The in-place rewrite is memcpy-scale and requires no worker
        action — the worker only reads segments while (re)building, and
        its live R-tree is maintained incrementally.  Growth past
        capacity allocates a fresh segment pair under a new name and
        tells the owner to re-attach and rebuild.
        """
        members = self._shard_members[shard]
        ids = sorted(members)
        points = [members[i] for i in ids]
        block = self._shard_blocks[shard]
        if len(ids) <= block.spec.capacity:
            block.publish(points, ids)
            return False
        grown = SharedBlock.create(
            self._segment_name(),
            self.session.dims,
            padded_capacity(len(ids)),
        )
        spec = grown.publish(points, ids)
        self._shard_blocks[shard] = grown
        owner = self._handles[process_of(shard, self.n_processes)]
        self._send_sync(owner, "reload", shard, spec)
        block.close()
        block.unlink()
        return True

    # holds-lock: _rw[write]
    def _republish_product(self) -> bool:
        """Rewrite the product segment; True if it grew (broadcast reload)."""
        ids = sorted(self._product_members)
        points = [self._product_members[i] for i in ids]
        block = self._product_block
        if len(ids) <= block.spec.capacity:
            block.publish(points, ids)
            return False
        grown = SharedBlock.create(
            self._segment_name(),
            self.session.dims,
            padded_capacity(len(ids)),
        )
        spec = grown.publish(points, ids)
        self._product_block = grown
        for handle in self._handles:
            self._send_sync(handle, "reload", None, spec)
        block.close()
        block.unlink()
        return True

    # holds-lock: _rw[write]
    def _send_sync(
        self, handle: ShardProcess, op: str, *args: object
    ) -> None:
        """Synchronously apply one sync command to a worker.

        A :class:`WorkerCrashError` here is retried *through* the
        respawn: the rebuilt worker's segment read may have happened
        before this mutation's republish, in which case only the
        incremental op carries it — so unlike queries (which fail fast
        and degrade coverage), the sync sender waits out the respawn
        and re-delivers to the live worker.  The commands are
        idempotent set/remove/reload operations, so a duplicate
        delivery is harmless.  Only a worker that stays dead past the
        deadline is skipped: it has no live tree to drift, and a later
        successful respawn rebuilds from the segment, which already
        includes this mutation.
        """
        deadline = clock() + _MUTATE_TIMEOUT_S
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                return
            try:
                # Deliberate blocking-under-lock: catalog mutations are
                # exclusive by design, and the sync sender must wait out
                # a respawn *inside* the write lock so no query observes
                # a worker whose live tree is missing this mutation.
                # Bounded by _MUTATE_TIMEOUT_S, never indefinite.
                # skyup: ignore[SKY1004]
                handle.request(op, *args, timeout=remaining)
                return
            except EngineClosedError:
                return
            except WorkerCrashError:
                # skyup: ignore[SKY1004] — same bounded respawn wait
                if not handle.wait_ready(remaining):
                    return

    # -- scatter helpers -------------------------------------------------------

    def _replay_fragments(
        self, trace: Optional[Trace], fragments: List[tuple]
    ) -> None:
        """Splice worker-side span fragments into the request's trace.

        Fragments are stamped with :data:`repro.obs.clock` in the worker
        — ``CLOCK_MONOTONIC`` is system-wide on Linux, so the timestamps
        are directly comparable with coordinator spans.
        """
        if trace is None:
            return
        for name, t0, t1, attrs in fragments:
            trace.record(name, t0, t1, **attrs)

    def _shards_of(self, handle: ShardProcess) -> List[int]:
        return shards_of_process(
            handle.index, self.n_shards, self.n_processes
        )

    def _rpc_window(
        self, remaining: Optional[float]
    ) -> Tuple[Optional[float], bool]:
        """The wait bound for one scatter round.

        Returns ``(timeout_s, deadline_bounded)``: when the request's
        remaining deadline is the binding constraint, a timeout is the
        *request's* fault — the shard's breaker must not be charged.
        """
        rpc = self._rpc_timeout_s
        if remaining is None:
            return rpc, False
        if rpc is None or remaining <= rpc:
            return remaining, True
        return rpc, False

    def _scatter(
        self,
        handles: List[ShardProcess],
        op: str,
        make_args,
        remaining: Optional[float],
        trace: Optional[Trace],
    ):
        """Hedged, breaker-feeding scatter of one command to ``handles``."""
        timeout_s, bounded = self._rpc_window(remaining)
        return scatter(
            [(h, op, make_args(h)) for h in handles],
            timeout_s=timeout_s,
            deadline_bounded=bounded,
            resilience=self._resilience,
            trace=trace,
        )

    def _scatter_skylines(
        self,
        points: List[Point],
        trace: Optional[Trace],
        remaining: Optional[float],
    ) -> Tuple[List[List[Point]], List[Set[int]], List[ShardProcess]]:
        """Batched skyline scatter over the breaker-admitted processes.

        Returns one merged skyline per query point, the shards each
        skyline covers (breaker-open processes, failed replies, and
        deadline-dropped trailing points all leave shards out), and the
        handles that failed for *shard-side* reasons (breaker open,
        crash, RPC-bound timeout; callers mark their shards down).
        Deadline-bounded timeouts shrink coverage but are not reported
        as failures.
        """
        res = self._resilience
        live = [h for h in self._handles if res.allow(h.index)]
        failed = [h for h in self._handles if not res.allow(h.index)]
        if failed:
            res.note_skip(len(failed))
        traced = trace is not None
        outcomes = self._scatter(
            live,
            "skylines",
            lambda h: (points, traced, remaining),
            remaining,
            trace,
        )
        contributions: List[List[List[Point]]] = [[] for _ in points]
        covered: List[Set[int]] = [set() for _ in points]
        for handle in live:
            outcome = outcomes[handle.index]
            if outcome.error is not None:
                if not outcome.deadline_bounded:
                    failed.append(handle)
                continue
            self._replay_fragments(trace, outcome.fragments)
            skylines, truncated = outcome.payload
            if truncated:
                res.note_deadline_truncation()
            shards = self._shards_of(handle)
            for j, sky in enumerate(skylines):
                contributions[j].append(sky)
                covered[j].update(shards)
        merged = [
            merge_skylines(parts) if parts else []
            for parts in contributions
        ]
        return merged, covered, failed

    # -- the executor seam -----------------------------------------------------

    def dominator_skyline(
        self, point: Point, stats: Counters, deadline: Optional[float]
    ) -> Tuple[List[Point], float]:
        """One product's merged skyline and the fraction of shards in it."""
        remaining = (
            None
            if deadline is None
            else max(0.001, deadline - time.monotonic())
        )
        merged, covered, _failed = self._scatter_skylines(
            [point], current_trace(), remaining
        )
        return merged[0], len(covered[0]) / self.n_shards

    def topk(self, k_max: int, stats: Counters, epoch: Epoch) -> "_ShardTopK":
        return _ShardTopK(self, k_max, stats, epoch)

    def shard_stats(self) -> Dict[str, object]:
        """Topology + per-process health (queue depth, crash counts)."""
        with self._rw.read_locked():
            epochs = list(self.epoch())
        return {
            "n_shards": self.n_shards,
            "n_processes": self.n_processes,
            "epoch_vector": epochs,
            "per_process": [
                {
                    "proc": handle.index,
                    "shards": self._shards_of(handle),
                    "queue_depth": handle.queue_depth,
                    "crashes": handle.crashes,
                    "respawns": handle.respawns,
                    "alive": handle.alive,
                    "health": round(
                        self._resilience.health(handle.index), 4
                    ),
                    "breaker": self._resilience.breakers[
                        handle.index
                    ].state,
                }
                for handle in self._handles
            ],
        }

    def describe(self) -> Dict[str, object]:
        return {
            "planner": None,
            "shards": self.shard_stats(),
            "shard_health": self._resilience.snapshot(
                lambda proc: shards_of_process(
                    proc, self.n_shards, self.n_processes
                )
            ),
            "worker_crashes": sum(h.crashes for h in self._handles),
            "worker_respawns": sum(h.respawns for h in self._handles),
        }


class _ShardTopK:
    """One scatter-gather top-k run: a progressive stream per shard
    merged under the threshold rule.

    Streams open lazily on the first :meth:`advance`, each of which is
    one merge round: pull a batch from every live stream, settle the new
    sightings' exact costs, drain what the threshold proves final.
    Shards that fail for shard-side reasons (breaker open, crash,
    RPC-bound timeout) are marked down and the run completes from the
    rest at ``coverage < 1``; a deadline-bounded timeout only ends the
    round — the front end's deadline sweep then answers the requests.
    """

    def __init__(
        self,
        executor: ShardExecutor,
        k_max: int,
        stats: Counters,
        epoch: Epoch,
    ):
        self._ex = executor
        self._k_max = k_max
        self._stats = stats
        self._epoch = epoch
        self._trace = current_trace()
        self.method = (
            "probing" if executor.config.method == "probing" else "join"
        )
        # Workers join at the session's default bound (``ShardSpec``).
        self.bound: Optional[str] = None
        self._merge = ThresholdMerge(executor.n_shards, k_max)
        self._stream_id = next(executor._stream_ids)
        self._opened: Optional[List[ShardProcess]] = None
        self._streaming: List[ShardProcess] = []
        self._seqs: Dict[int, int] = {}
        self._batch = max(_STREAM_BATCH, k_max)

    @property
    def results(self) -> List[UpgradeResult]:
        return self._merge.emitted

    @property
    def done(self) -> bool:
        return self._merge.done

    @property
    def coverage(self) -> float:
        return self._merge.coverage

    @property
    def exact(self) -> bool:
        """Full coverage and no held sighting: the canonical answer."""
        return self._merge.coverage >= 1.0 and not self._merge.held

    @property
    def exhausted(self) -> bool:
        merge = self._merge
        return merge.all_exhausted and len(merge.emitted) < self._k_max

    def _mark_down(self, handle: ShardProcess) -> None:
        if handle in self._streaming:
            self._streaming.remove(handle)
        for shard in self._ex._shards_of(handle):
            self._merge.mark_down(shard)

    def _open(self, active: Sequence[PendingQuery]) -> None:
        ex, res, trace = self._ex, self._ex._resilience, self._trace
        live: List[ShardProcess] = []
        for handle in ex._handles:
            if res.allow(handle.index):
                live.append(handle)
            else:
                self._mark_down(handle)
        skipped = len(ex._handles) - len(live)
        if skipped:
            res.note_skip(skipped)
            if trace is not None:
                trace.attrs["breaker_skips"] = skipped
        self._opened = []
        if not live:
            return
        outcomes = ex._scatter(
            live,
            "topk_open",
            lambda h: (self._stream_id, self.method),
            _remaining(active),
            trace,
        )
        for handle in live:
            if outcomes[handle.index].error is None:
                self._opened.append(handle)
                self._seqs[handle.index] = 0
            else:
                # Stream never opened: the shards contribute nothing
                # regardless of whose fault the failure is.
                self._mark_down(handle)
        self._streaming = list(self._opened)

    def advance(self, want: int, active: Sequence[PendingQuery]) -> bool:
        """One merge round; False when no live stream can progress."""
        if self._opened is None:
            self._open(active)
        ex, merge, trace = self._ex, self._merge, self._trace
        ask = [
            h
            for h in self._streaming
            if any(
                not merge.exhausted[s] and not merge.down[s]
                for s in ex._shards_of(h)
            )
        ]
        if not ask:
            return False
        remaining = _remaining(active)
        outcomes = ex._scatter(
            ask,
            "topk_next",
            lambda h: (
                self._stream_id,
                self._seqs[h.index],
                self._batch,
                trace is not None,
                remaining,
            ),
            remaining,
            trace,
        )
        new_ids: List[int] = []
        for handle in ask:
            outcome = outcomes[handle.index]
            if outcome.error is not None:
                if not outcome.deadline_bounded:
                    # Shard-side failure: finish without it.
                    # (Deadline-bounded timeouts retire the requests at
                    # the next sweep instead.)
                    self._mark_down(handle)
                continue
            self._seqs[handle.index] += 1
            ex._replay_fragments(trace, outcome.fragments)
            rows_reply, was_truncated = outcome.payload
            if was_truncated:
                ex._resilience.note_deadline_truncation()
            for shard, rows, frontier, exh in rows_reply:
                new_ids.extend(merge.observe(shard, rows, frontier, exh))
        if new_ids:
            self._cost_sightings(sorted(new_ids), _remaining(active))
        merge.drain()
        return True

    def _cost_sightings(
        self, record_ids: List[int], remaining: Optional[float]
    ) -> None:
        """Settle every new sighting into the merge.

        Each id ends up costed (:meth:`ThresholdMerge.add_candidate`),
        released (:meth:`~ThresholdMerge.abandon` — a racing removal, or
        every shard down), or *held* (:meth:`~ThresholdMerge.hold`): its
        skyline came back without some shard the merge still counts as
        live (a deadline cut the scatter short), so its cost is not
        exact over the answer's market and its rank is unknown — the
        merge emits nothing further.
        """
        ex, merge, engine = self._ex, self._merge, self._ex._engine
        session = ex.session
        misses: List[Tuple[int, Point]] = []
        for rid in record_ids:
            point = session.product_point(rid)
            if point is None:
                merge.abandon(rid)  # racing removal: nothing to cost
                continue
            entry = engine._cached_skyline_entry(point)
            if entry is not None:
                cached = entry.result
                merge.add_candidate(
                    UpgradeResult(rid, point, cached.upgraded, cached.cost)
                )
            else:
                misses.append((rid, point))
        if not misses:
            return
        merged, covered, failed = ex._scatter_skylines(
            [p for _, p in misses], self._trace, remaining
        )
        for handle in failed:
            self._mark_down(handle)
        live = {s for s, down in enumerate(merge.down) if not down}
        for (rid, point), skyline, shards in zip(misses, merged, covered):
            if not live <= shards:
                merge.hold(rid)
                continue
            if not shards:
                merge.abandon(rid)  # every shard is down: unknowable
                continue
            cost, upgraded = upgrade(
                skyline,
                point,
                session.cost_model,
                session.config,
                self._stats,
            )
            result = UpgradeResult(rid, point, upgraded, cost)
            # Only full-coverage skylines may enter the cache: a
            # reduced-market cost must never masquerade as exact.
            if len(shards) == ex.n_shards:
                engine._store_skyline(point, skyline, result, self._epoch)
            merge.add_candidate(result)

    def finish(self) -> None:
        pass

    def close(self) -> None:
        for handle in self._opened or ():
            try:
                handle.submit("topk_close", self._stream_id)
            except (EngineClosedError, WorkerCrashError):
                pass


#: The sharded tier is the engine itself, built with ``processes > 0``.
ShardedUpgradeEngine = UpgradeEngine
