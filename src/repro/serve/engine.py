"""The upgrade-query engine: one front end over two executors.

:class:`UpgradeEngine` serves top-k and single-product upgrade queries
against a live :class:`~repro.core.session.MarketSession`.  The front
end owns everything about *serving*, whatever executes the queries:

* **Epoch-versioned caching** — dominator skylines and the whole-catalog
  top-k prefix are cached and invalidated *precisely* on catalog mutations
  (region overlap against the mutated point, not wholesale; see
  :mod:`repro.serve.cache`).  Cache faults degrade to recomputes.
* **Batch execution** — concurrent top-k requests drained from the queue
  together are served by *one* progressive run to the largest requested
  ``k``; each request receives its prefix.
* **Bounded concurrency** — a thread worker pool with an admission-bounded
  queue (:mod:`repro.serve.pool` documents the GIL tradeoff), a
  readers-writer lock so queries run concurrently while mutations are
  exclusive, and per-request deadlines with graceful degradation: on
  deadline the progressive prefix emitted so far is returned with
  ``partial=True`` instead of an error.
* **Reliability** (:mod:`repro.reliability`) — worker supervision (a
  crashing batch is contained and failed with a typed
  :class:`~repro.exceptions.WorkerCrashError`), retries of
  :class:`~repro.exceptions.TransientError` failures under a
  capped-backoff :class:`~repro.reliability.retry.RetryPolicy`, a
  sampling kernel-vs-scalar result guard that quarantines diverging
  kernels, and a budgeted R-tree invariant check after mutations.
* **Tracing and metrics** — sampled structured traces
  (:mod:`repro.obs`) and one :meth:`UpgradeEngine.metrics` schema.

Behind the front end sits an *executor*, picked by
``EngineConfig.processes``:

* :class:`LocalExecutor` (``processes == 0``) — the session's indexes,
  the cost-based planner, and the progressive join / improved probing,
  all in this process.
* :class:`~repro.shard.engine.ShardExecutor` (``processes > 0``) —
  competitor shards in worker processes, scatter-gather with a
  threshold merge, hedging and breakers (:mod:`repro.shard`).

The seam is small.  An executor reports its cache :meth:`epoch`, keeps
itself in sync on :meth:`on_mutation`, answers
:meth:`dominator_skyline` for one product with the fraction of the
market it covered, and opens a top-k *run*: an object exposing
``results`` (an exact prefix of the canonical ``(cost, record_id)``
order), ``done``, ``exhausted``, ``coverage``, ``exact`` and
``advance(want, active)``.  The front end drives every run through the
same deadline sweep, so retries, guards and degradation labels mean the
same thing on both tiers.  The kernel guard compares only ``exact``
answers (full coverage, not degraded): a shard that is down is not a
kernel divergence.

Deadlines are *cooperative*: they are checked between progressive
results, so a response can overshoot by at most one step of the run.
Retry backoff sleeps on the worker thread (inside the read lock), which
is why :class:`~repro.reliability.retry.RetryPolicy` keeps delays in the
low milliseconds.  Catalog mutations must go through the engine's
mutator methods (or otherwise be externally synchronized) — the
underlying session is not itself thread-safe.

Example::

    session = MarketSession.from_points(P, T)
    config = EngineConfig(workers=4, trace_sample_rate=0.1)
    with UpgradeEngine(session, config) as engine:
        pending = engine.submit_batch(
            [TopKQuery(k=5), TopKQuery(k=10, deadline_s=0.05)]
        )
        for p in pending:
            response = p.result(timeout=1.0)
            use(response.results, response.partial)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.probing import improved_probing
from repro.core.session import MarketSession, MutationEvent
from repro.core.types import UpgradeResult
from repro.core.upgrade import upgrade
from repro.exceptions import (
    ConfigurationError,
    EngineClosedError,
    EngineOverloadedError,
    RTreeError,
    TransientError,
    WorkerCrashError,
)
from repro.instrumentation import Counters, Stopwatch
from repro.kernels.switch import kernels_enabled, use_kernels
from repro.obs import Trace, Tracer, TraceStore, activate, clock, span
from repro.plan import LogicalPlan, PhysicalPlan, Planner, profile_catalog
from repro.plan.planner import PlannedQuery
from repro.reliability.faults import active_injector, maybe_inject
from repro.reliability.guards import IndexGuard, KernelGuard, divergence
from repro.reliability.retry import RetryPolicy
from repro.serve.cache import SkylineCache, TopKCache
from repro.serve.config import EngineConfig
from repro.serve.metrics import EngineMetrics
from repro.serve.pool import ReadWriteLock, WorkerPool

Epoch = Tuple[int, ...]
Point = Tuple[float, ...]


@dataclass(frozen=True)
class TopKQuery:
    """Top-k cheapest upgrades over the whole catalog.

    Attributes:
        k: number of results wanted.
        deadline_s: per-request budget from submission; ``None`` uses the
            engine default (which may itself be ``None`` — no deadline).
    """

    k: int = 1
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class ProductQuery:
    """The optimal upgrade of one catalog product against the market."""

    product_id: int
    deadline_s: Optional[float] = None


Query = Union[TopKQuery, ProductQuery]


@dataclass
class QueryResponse:
    """What a request resolves to.

    Attributes:
        results: ranked upgrade results (a single element for
            :class:`ProductQuery`; possibly short for partial responses).
        partial: the deadline expired before the full answer was ready;
            ``results`` is the valid progressive prefix emitted so far.
        cache_hit: served from the epoch-versioned cache.
        epoch: catalog epoch the answer is valid for.
        queue_wait_s: time from submission to worker pickup.
        elapsed_s: end-to-end time from submission to response.
        coverage: fraction of catalog shards that contributed
            (``1.0`` outside the sharded tier).  A partial response at
            full coverage is an exact prefix of the canonical order; at
            ``coverage < 1`` the results are exact over the reduced
            market formed by the live shards — per-product lower bounds
            on the true costs.
    """

    results: List[UpgradeResult] = field(default_factory=list)
    partial: bool = False
    cache_hit: bool = False
    epoch: Epoch = (0, 0)
    queue_wait_s: float = 0.0
    elapsed_s: float = 0.0
    coverage: float = 1.0


class PendingQuery:
    """A submitted request; resolves to a :class:`QueryResponse`.

    Carries the request's (possibly absent) :class:`~repro.obs.Trace`
    across the submit→worker thread hop — the worker re-activates it so
    spans opened on both sides nest under the same root.
    """

    __slots__ = (
        "query",
        "abs_deadline",
        "enqueued_at",
        "picked_up_at",
        "trace",
        "_event",
        "_response",
        "_exception",
    )

    def __init__(self, query: Query, default_deadline_s: Optional[float]):
        self.query = query
        self.enqueued_at = time.monotonic()
        self.picked_up_at: Optional[float] = None
        self.trace: Optional[Trace] = None
        budget = (
            query.deadline_s
            if query.deadline_s is not None
            else default_deadline_s
        )
        self.abs_deadline = (
            self.enqueued_at + budget if budget is not None else None
        )
        self._event = threading.Event()
        self._response: Optional[QueryResponse] = None
        self._exception: Optional[BaseException] = None

    def mark_picked_up(self, at: float) -> None:
        """Stamp worker pickup (first stamp wins; the pool calls this at
        batch drain, the batch executor backstops it)."""
        if self.picked_up_at is None:
            self.picked_up_at = at

    @property
    def queue_wait_s(self) -> float:
        """Seconds between submission and worker pickup (0.0 if never
        picked up)."""
        if self.picked_up_at is None:
            return 0.0
        return self.picked_up_at - self.enqueued_at

    def done(self) -> bool:
        """True once a response (or error) is available."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResponse:
        """Block for the response.

        Raises:
            TimeoutError: ``timeout`` elapsed with no response.
            Exception: whatever the request failed with (e.g.
                :class:`~repro.exceptions.ConfigurationError` for an
                unknown product id).
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"no response within {timeout}s for {self.query}"
            )
        if self._exception is not None:
            raise self._exception
        assert self._response is not None
        return self._response

    def _resolve(self, response: QueryResponse) -> None:
        self._response = response
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._exception = exc
        self._event.set()




def _probing_topk(
    session: MarketSession, k: int, stats: Counters
) -> Tuple[List[UpgradeResult], bool, float]:
    """One improved-probing run mapped back to catalog product ids.

    Returns ``(results, exhausted, elapsed_s)``.  Work is charged to
    ``stats`` — the request counters on the serving path, the guard
    counters on oracle recomputes.
    """
    ids, points = session.products_by_id()
    if not points:
        return [], True, 0.0
    outcome = improved_probing(
        session.competitor_index,
        points,
        session.cost_model,
        k,
        session.config,
    )
    stats.merge(outcome.report.counters)
    results = [
        replace(r, record_id=ids[r.record_id]) for r in outcome.results
    ]
    return results, len(results) < k, outcome.report.elapsed_s


class LocalExecutor:
    """In-process execution: the session's indexes and the planner.

    Top-k runs follow the planner's choice per catalog epoch: the
    progressive join (one result per :meth:`_LocalTopK.advance`) or one
    improved-probing run (not progressive: a single advance yields the
    whole answer).
    """

    sharded = False

    def __init__(self, session: MarketSession, config: EngineConfig):
        self.session = session
        self.config = config
        # Each engine owns its planner, so its choice and estimate-error
        # tallies in ``metrics()`` describe this catalog alone.
        self.planner = Planner()
        self._plan_lock = threading.Lock()
        self._plan_cache: Optional[Tuple[Epoch, PlannedQuery]] = None

    def epoch(self) -> Epoch:
        return self.session.epoch

    def on_mutation(self, event: MutationEvent) -> None:
        with self._plan_lock:
            # The chosen plan is keyed on the epoch anyway, but dropping
            # it eagerly keeps the cache from pinning a dead PlannedQuery.
            self._plan_cache = None

    def dominator_skyline(
        self, point: Point, stats: Counters, deadline: Optional[float]
    ) -> Tuple[List[Point], float]:
        return self.session.dominator_skyline(point, stats), 1.0

    def topk(self, k_max: int, stats: Counters, epoch: Epoch) -> "_LocalTopK":
        return _LocalTopK(self, self._current_plan(epoch), stats)

    def _current_plan(self, epoch: Epoch) -> Optional[PlannedQuery]:
        """The planner's choice for this catalog epoch (None = fixed join).

        Cached per epoch: the choice is a function of the catalog
        profile, which only a mutation (a new epoch) can change.  With
        ``config.method="join"`` planning is skipped entirely — the
        fixed join path.
        """
        if self.config.method == "join":
            return None
        with self._plan_lock:
            cached = self._plan_cache
            if cached is not None and cached[0] == epoch:
                return cached[1]
        session = self.session
        with span("engine.plan", method=self.config.method):
            profile = profile_catalog(
                session.competitor_index,
                session.product_count,
                session.dims,
                product_tree=session.product_index,
            )
            logical = LogicalPlan(k=1, profile=profile)
            force = None
            if self.config.method == "probing":
                force = PhysicalPlan(method="probing")
            planned = self.planner.plan(logical, force=force)
        with self._plan_lock:
            self._plan_cache = (epoch, planned)
        return planned

    def describe(self) -> Dict[str, object]:
        return {
            "planner": (
                self.planner.stats()
                if self.config.method != "join"
                else None
            ),
            "shards": None,
            "shard_health": None,
            "worker_crashes": None,
            "worker_respawns": None,
        }

    def close(self, timeout: float) -> None:
        pass


class _LocalTopK:
    """One in-process top-k run (see :class:`LocalExecutor`)."""

    coverage = 1.0
    exact = True

    def __init__(
        self,
        executor: LocalExecutor,
        planned: Optional[PlannedQuery],
        stats: Counters,
    ):
        self._executor = executor
        self._planned = planned
        self._stats = stats
        self.method = planned.plan.method if planned is not None else "join"
        self.results: List[UpgradeResult] = []
        self.done = False
        self.exhausted = False
        self._watch = Stopwatch()
        self._upgrader = None
        self._gen = None
        self._probing_s: Optional[float] = None

    def advance(self, want: int, active: Sequence[PendingQuery]) -> bool:
        """Pull the next result (probing: the whole top-``want``)."""
        if self.method != "join":
            self.results, self.exhausted, self._probing_s = _probing_topk(
                self._executor.session, want, self._stats
            )
            self.done = True
            return True
        if self._gen is None:
            session, planned = self._executor.session, self._planned
            self._upgrader = (
                session.make_upgrader()
                if planned is None
                else session.make_upgrader(bound=planned.plan.bound)
            )
            self._gen = self._upgrader.results()
        try:
            self.results.append(next(self._gen))
        except StopIteration:
            self.done = self.exhausted = True
            return False
        return True

    def finish(self) -> None:
        """Charge the run's work and record its estimate-vs-actual."""
        planned = self._planned
        if self._upgrader is not None:
            self._stats.merge(self._upgrader.stats)
        if planned is None:
            return
        elapsed = (
            self._probing_s
            if self._probing_s is not None
            else self._watch.split()
        )
        self._executor.planner.observe(planned, elapsed)

    def close(self) -> None:
        pass


class UpgradeEngine:
    """Serve upgrade queries against a live market session.

    Args:
        session: the owned market state.  The engine registers a mutation
            listener; route mutations through the engine's mutator methods
            so they synchronize with in-flight queries.
        config: every tunable, consolidated in one frozen
            :class:`~repro.serve.config.EngineConfig` (``None`` = all
            defaults).  ``config.processes`` picks the executor: 0 runs
            in-process, N > 0 shards the competitor catalog over N worker
            processes.
    """

    def __init__(
        self, session: MarketSession, config: Optional[EngineConfig] = None
    ):
        if config is None:
            config = EngineConfig()
        self.config = config
        self.session = session
        self.cache_enabled = config.cache
        self.default_deadline_s = config.default_deadline_s
        self.retry_policy = (
            config.retry_policy
            if config.retry_policy is not None
            else RetryPolicy()
        )
        self.kernel_guard = (
            config.kernel_guard
            if config.kernel_guard is not None
            else KernelGuard()
        )
        self.index_guard = IndexGuard(every=config.index_check_every)
        self.skyline_cache = SkylineCache(
            max_entries=config.skyline_cache_entries
        )
        self.topk_cache = TopKCache()
        self.tracer = Tracer(
            sample_rate=config.trace_sample_rate,
            slow_threshold_s=config.trace_slow_s,
            seed=config.trace_seed,
            max_spans=config.trace_max_spans,
        )
        self.trace_store = TraceStore(capacity=config.trace_store_capacity)
        self._metrics = EngineMetrics(window=config.metrics_window)
        self._rw = ReadWriteLock()
        self._extern_counters: Dict[int, Counters] = (
            {}
        )  # guarded-by: _extern_lock
        self._extern_lock = threading.Lock()
        # Oracle recomputes are guard overhead, not request work: they get
        # their own counters so the request counters still equal a serial
        # run's exactly (the suite asserts that equality).
        self._guard_stats = Counters()  # guarded-by: _guard_stats_lock
        self._guard_stats_lock = threading.Lock()
        self._closed = False
        if config.processes > 0:
            from repro.shard.engine import ShardExecutor

            self._executor = ShardExecutor(self)
        else:
            self._executor = LocalExecutor(session, config)
        self._pool: Optional[WorkerPool] = None
        if config.workers > 0:
            self._pool = WorkerPool(
                self._execute_batch,
                workers=config.workers,
                queue_capacity=config.queue_capacity,
                batch_max=config.batch_max,
                on_batch_error=self._fail_batch,
            )
        session.add_mutation_listener(self._on_mutation)

    # -- lifecycle ------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> int:
        """Stop the pool and the executor, detach from the session.

        Idempotent; later queries raise
        :class:`~repro.exceptions.EngineClosedError`.  Returns the number
        of workers that failed to join within ``timeout`` (0 = clean
        shutdown; stragglers are named in ``pool.stuck_workers``).
        """
        if self._closed:
            return 0
        self._closed = True
        stuck = 0
        if self._pool is not None:
            stuck = self._pool.close(timeout=timeout)
        self.session.remove_mutation_listener(self._on_mutation)
        self._executor.close(timeout)
        return stuck

    def __enter__(self) -> "UpgradeEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def epoch_vector(self) -> Epoch:  # holds-lock: _rw[read]
        """The cache epoch responses carry: the session's
        ``(competitor, product)`` epoch in-process, the per-shard vector
        ``(e_0, …, e_{S-1}, product_epoch)`` when sharded."""
        return self._executor.epoch()

    # -- catalog mutation (exclusive) -----------------------------------------

    def add_competitor(self, point: Sequence[float]) -> int:
        """Insert a competitor; precisely invalidates overlapping caches."""
        with self._rw.write_locked():
            cid = self.session.add_competitor(point)
            self._check_indexes()
            return cid

    def remove_competitor(self, competitor_id: int) -> bool:
        """Remove a competitor; precisely invalidates overlapping caches."""
        with self._rw.write_locked():
            removed = self.session.remove_competitor(competitor_id)
            if removed:
                self._check_indexes()
            return removed

    def add_product(self, point: Sequence[float]) -> int:
        """Add a catalog product (drops the cached top-k prefix)."""
        with self._rw.write_locked():
            pid = self.session.add_product(point)
            self._check_indexes()
            return pid

    def remove_product(self, product_id: int) -> bool:
        """Remove a catalog product (drops the cached top-k prefix)."""
        with self._rw.write_locked():
            removed = self.session.remove_product(product_id)
            if removed:
                self._check_indexes()
            return removed

    def commit_upgrade(self, result: UpgradeResult) -> None:
        """Commit an upgrade result (drops the cached top-k prefix)."""
        with self._rw.write_locked():
            self.session.commit_upgrade(result)
            self._check_indexes()

    def _check_indexes(self) -> None:
        """Budgeted structural validation, inside the mutation's write lock.

        Raises:
            RTreeError: an index invariant is violated — surfaced to the
                mutating caller, since serving from a corrupt index would
                silently return wrong answers.
        """
        if not self.index_guard.should_check():
            return
        try:
            self.session.validate_indexes()
        except RTreeError:
            self.index_guard.record_failure()
            raise

    # holds-lock: _rw[write]
    def _on_mutation(self, event: MutationEvent) -> None:
        """Precise invalidation, then executor sync — inside the
        mutation's write lock.

        Competitor mutations drop skyline entries whose ADR contains the
        mutated point, and the top-k prefix only when some product lies in
        the point's dominance region.  Product mutations change the ranked
        set itself, so the top-k prefix always goes; skylines (competitor
        functions) survive.

        If the overlap probe fails transiently (e.g. an injected
        ``rtree.query`` fault), the prefix is dropped anyway: when in
        doubt, invalidating is always correct — keeping a stale prefix is
        not.
        """
        if event.side == "competitor":
            self.skyline_cache.invalidate_point(event.point)
            try:
                overlaps = self.session.any_product_in_dominance_region(
                    event.point
                )
            except TransientError:
                self._metrics.record_cache_fault()
                overlaps = True
            if overlaps:
                self.topk_cache.invalidate()
        else:
            self.topk_cache.invalidate()
        self._executor.on_mutation(event)

    # -- query submission ------------------------------------------------------

    def query(self, query: Query) -> QueryResponse:
        """Execute one request synchronously on the calling thread."""
        return self.execute_batch([query])[0]

    # error-boundary: chaos drivers replay through typed failures
    def execute_batch(
        self, queries: Sequence[Query], raise_errors: bool = True
    ) -> List[QueryResponse]:
        """Execute a batch synchronously; responses in request order.

        Top-k requests in the batch share a single progressive run.
        With ``raise_errors`` (the default) the per-request exception
        (e.g. unknown product id) is raised exactly as
        :meth:`PendingQuery.result` would; with ``raise_errors=False``
        failed slots hold the exception object instead — chaos drivers
        use this to keep replaying through typed failures.
        """
        pendings = [self._admit(q) for q in queries]
        self._execute_batch(pendings, self._calling_thread_counters())
        if raise_errors:
            return [p.result(timeout=0) for p in pendings]
        out: List[QueryResponse] = []
        for p in pendings:
            try:
                out.append(p.result(timeout=0))
            except Exception as exc:
                out.append(exc)  # type: ignore[arg-type]
        return out

    def submit(self, query: Query) -> PendingQuery:
        """Enqueue one request on the worker pool."""
        return self.submit_batch([query])[0]

    def submit_batch(self, queries: Sequence[Query]) -> List[PendingQuery]:
        """Enqueue requests atomically on the worker pool.

        Raises:
            ConfigurationError: no pool (``workers=0``) or bad query.
            EngineOverloadedError: the bounded queue is full.
            EngineClosedError: the engine was closed.
        """
        if self._pool is None:
            raise ConfigurationError(
                "engine has no worker pool (workers=0); use query() / "
                "execute_batch()"
            )
        pendings = [self._admit(q) for q in queries]
        try:
            self._pool.submit_many(pendings)
        except (EngineClosedError, EngineOverloadedError):
            self._metrics.record_rejection()
            raise
        return pendings

    def _admit(self, query: Query) -> PendingQuery:
        if self._closed:
            raise EngineClosedError("engine is closed")
        if isinstance(query, TopKQuery):
            if query.k < 1:
                raise ConfigurationError(f"k must be >= 1, got {query.k}")
        elif not isinstance(query, ProductQuery):
            raise ConfigurationError(
                f"unsupported query type: {type(query).__name__}"
            )
        pending = PendingQuery(query, self.default_deadline_s)
        if self.tracer.enabled:
            if isinstance(query, TopKQuery):
                trace = self.tracer.start("topk", k=query.k)
            else:
                trace = self.tracer.start(
                    "product", product_id=query.product_id
                )
            if trace is not None:
                pending.trace = trace
                # The root span's extent is admission → resolution; it is
                # closed by _finish_trace, not a lexical block.
                trace.span("engine.request").__enter__()
        return pending

    # -- execution -------------------------------------------------------------

    def _fail_batch(
        self, pendings: Sequence[PendingQuery], exc: BaseException
    ) -> None:
        """Terminal containment: every unresolved request gets a typed
        :class:`WorkerCrashError` so no caller is left hanging.

        Doubles as the pool's ``on_batch_error`` backstop — already-done
        requests are left untouched, so double delivery is impossible.
        """
        self._metrics.record_worker_crash()
        wrapped = WorkerCrashError(f"batch execution crashed: {exc!r}")
        wrapped.__cause__ = exc
        for pending in pendings:
            if not pending.done():
                kind = (
                    "topk"
                    if isinstance(pending.query, TopKQuery)
                    else "product"
                )
                self._metrics.record_request(
                    kind, 0.0, 0.0, partial=False, error=True
                )
                pending._fail(wrapped)
            if pending.trace is not None:
                pending.trace.attrs.setdefault("error", type(exc).__name__)
                self._finish_trace(pending)

    # error-boundary: batch containment — no caller is left hanging
    def _execute_batch(
        self, pendings: List[PendingQuery], counters: Counters
    ) -> None:
        now = time.monotonic()
        worker = threading.current_thread().name
        for p in pendings:
            p.mark_picked_up(now)
            if p.trace is not None:
                # Retroactive: the span's extent (submission → pickup) is
                # only known once the worker has the request in hand.
                p.trace.record(
                    "engine.queue_wait",
                    p.trace.spans[0].t0,
                    clock(),
                    queue_wait_s=round(p.queue_wait_s, 6),
                    worker=worker,
                )
        local = Counters()
        try:
            maybe_inject("serve.handler")
            with self._rw.read_locked():
                epoch = self._executor.epoch()
                topk_group: List[PendingQuery] = []
                for pending in pendings:
                    if isinstance(pending.query, TopKQuery):
                        topk_group.append(pending)
                    else:
                        self._serve_product(pending, local, epoch)
                if topk_group:
                    self._serve_topk_group(topk_group, local, epoch)
        except Exception as exc:
            self._fail_batch(pendings, exc)
        counters.merge(local)
        self._metrics.record_batch(len(pendings))

    # -- cache access (faults degrade to recomputes) ---------------------------

    def _cached_skyline_entry(self, point: Point):
        if not self.cache_enabled:
            return None
        try:
            maybe_inject("serve.cache")
            return self.skyline_cache.get(point)
        except TransientError:
            self._metrics.record_cache_fault()
            return None

    def _store_skyline(self, point, skyline, result, epoch) -> None:
        if not self.cache_enabled:
            return
        try:
            maybe_inject("serve.cache")
            self.skyline_cache.put(point, skyline, result, epoch)
        except TransientError:
            self._metrics.record_cache_fault()

    def _cached_topk(self, k: int):
        if not self.cache_enabled:
            return None
        try:
            maybe_inject("serve.cache")
            return self.topk_cache.get(k)
        except TransientError:
            self._metrics.record_cache_fault()
            return None

    def _store_topk(self, results, exhausted, epoch) -> None:
        if not self.cache_enabled:
            return
        try:
            maybe_inject("serve.cache")
            self.topk_cache.put(results, exhausted, epoch)
        except TransientError:
            self._metrics.record_cache_fault()

    # -- retries ---------------------------------------------------------------

    # error-boundary: per-request containment — fail, never hang
    def _serve_retrying(
        self, pendings: List[PendingQuery], kind: str, serve_once
    ) -> None:
        """Run ``serve_once(unresolved)`` until every request resolves.

        A :class:`TransientError` backs off and re-executes only the
        unresolved remainder (deadline partials and early-k completions
        stay resolved); retries stop at the policy's attempt cap or once
        every waiting request's deadline has passed (a retry nobody can
        wait for is wasted work).  Any other error fails the remainder.
        """
        attempt = 1
        while True:
            unresolved = [p for p in pendings if not p.done()]
            if not unresolved:
                return
            try:
                serve_once(unresolved)
                return
            except TransientError as exc:
                now = time.monotonic()
                waiting = any(
                    p.abs_deadline is None or p.abs_deadline > now
                    for p in unresolved
                    if not p.done()
                )
                if attempt < self.retry_policy.max_attempts and waiting:
                    self._metrics.record_retry()
                    time.sleep(self.retry_policy.delay_s(attempt))
                    attempt += 1
                    continue
                self._fail(unresolved, exc, kind)
                return
            except Exception as exc:
                self._fail(unresolved, exc, kind)
                return

    def _fail(
        self, pendings: Sequence[PendingQuery], exc: BaseException, kind: str
    ) -> None:
        for pending in pendings:
            if not pending.done():
                self._metrics.record_request(
                    kind, 0.0, 0.0, partial=False, error=True
                )
                pending._fail(exc)

    # -- product queries -------------------------------------------------------

    # error-boundary: per-request containment — fail, never hang
    def _serve_product(
        self, pending: PendingQuery, stats: Counters, epoch: Epoch
    ) -> None:
        try:
            with activate(pending.trace):
                with span("engine.execute", kind="product"):
                    self._serve_retrying(
                        [pending],
                        "product",
                        lambda _: self._serve_product_once(
                            pending, stats, epoch
                        ),
                    )
        finally:
            self._finish_trace(pending)

    def _serve_product_once(
        self, pending: PendingQuery, stats: Counters, epoch: Epoch
    ) -> None:
        query = pending.query
        point = self.session.product_point(query.product_id)
        if point is None:
            raise ConfigurationError(
                f"unknown product id {query.product_id}"
            )
        if (
            pending.abs_deadline is not None
            and time.monotonic() >= pending.abs_deadline
        ):
            self._respond(pending, [], partial=True, cache_hit=False,
                          epoch=epoch, kind="product")
            return
        entry = self._cached_skyline_entry(point)
        if entry is not None:
            cached = entry.result
            result = UpgradeResult(
                query.product_id, point, cached.upgraded, cached.cost
            )
            self._respond(pending, [result], partial=False,
                          cache_hit=True, epoch=epoch, kind="product")
            return
        skyline, coverage = self._executor.dominator_skyline(
            point, stats, pending.abs_deadline
        )
        if coverage <= 0.0:
            # No shard answered: nothing safe to say about this cost.
            self._respond(pending, [], partial=True, cache_hit=False,
                          epoch=epoch, kind="product", coverage=0.0)
            return
        cost, upgraded = upgrade(
            skyline,
            point,
            self.session.cost_model,
            self.session.config,
            stats,
        )
        result = UpgradeResult(query.product_id, point, upgraded, cost)
        if coverage < 1.0:
            # Exact over the reduced market only: labelled, a lower
            # bound on the true cost, never guarded or cached.
            self._respond(pending, [result], partial=True, cache_hit=False,
                          epoch=epoch, kind="product", coverage=coverage)
            return
        result = self._guarded_product_result(result)
        self._store_skyline(point, skyline, result, epoch)
        self._respond(pending, [result], partial=False,
                      cache_hit=False, epoch=epoch, kind="product")

    # -- kernel result guard ---------------------------------------------------

    def _guarded_product_result(
        self, result: UpgradeResult
    ) -> UpgradeResult:
        """Maybe cross-check one kernel-path answer against the oracle.

        On divergence: record it, quarantine the kernels (global flip to
        scalar), and serve the oracle's answer — the client never sees the
        divergent result.  The recompute is charged to the engine's guard
        counters, never the request counters (see ``guard_counters``).
        """
        guard = self.kernel_guard
        if not kernels_enabled() or not guard.should_check():
            return result
        work = Counters()
        with span("guard.recompute", kind="product"), use_kernels(False):
            skyline = self.session.dominator_skyline(result.original, work)
            cost, upgraded = upgrade(
                skyline,
                result.original,
                self.session.cost_model,
                self.session.config,
                work,
            )
        with self._guard_stats_lock:
            self._guard_stats.merge(work)
        if guard.costs_match(result.cost, cost) and all(
            abs(a - b) <= guard.tolerance
            for a, b in zip(result.upgraded, upgraded)
        ):
            return result
        if guard.record_divergence(
            divergence(
                "product",
                [(result.record_id, result.cost)],
                [(result.record_id, cost)],
            )
        ):
            self._metrics.record_quarantine()
        return UpgradeResult(result.record_id, result.original, upgraded, cost)

    def _oracle_topk(
        self, k: int, method: str = "join"
    ) -> List[UpgradeResult]:
        """The in-process scalar top-``k`` prefix (the guard's reference).

        Recomputes with the same ``method`` the guarded run used, so the
        comparison isolates kernel-vs-scalar.  Charged to the guard
        counters, not the request counters.
        """
        oracle_stats = Counters()
        with span("guard.recompute", kind="topk", k=k), use_kernels(False):
            if method != "join":
                results, _exhausted, _ = _probing_topk(
                    self.session, k, oracle_stats
                )
            else:
                upgrader = self.session.make_upgrader()
                results = []
                for result in upgrader.results():
                    results.append(result)
                    if len(results) >= k:
                        break
                oracle_stats.merge(upgrader.stats)
        with self._guard_stats_lock:
            self._guard_stats.merge(oracle_stats)
        return results

    # -- top-k queries ---------------------------------------------------------

    # error-boundary: per-request containment — fail, never hang
    def _serve_topk_group(
        self,
        group: List[PendingQuery],
        stats: Counters,
        epoch: Epoch,
    ) -> None:
        """Serve a group of top-k requests under the group's traces.

        The group shares one run, so its detailed spans would be
        identical in every member's trace; they are recorded once, into
        the first traced member (the *primary*).  Every other traced
        member gets a retroactive ``engine.execute`` span pointing at the
        primary's trace id, keeping queue wait and execution separable
        per request without duplicating the run's span tree.
        """

        def serve(unresolved: List[PendingQuery]) -> None:
            self._serve_topk_once(unresolved, stats, epoch)

        traced = [p for p in group if p.trace is not None]
        if not traced:
            self._serve_retrying(group, "topk", serve)
            return
        primary = traced[0]
        start = clock()
        try:
            with activate(primary.trace):
                with span(
                    "engine.execute", kind="topk", group_size=len(group)
                ):
                    self._serve_retrying(group, "topk", serve)
        finally:
            end = clock()
            primary_id = primary.trace.trace_id
            for p in traced:
                if p is not primary and p.trace is not None:
                    p.trace.record(
                        "engine.execute",
                        start,
                        end,
                        kind="topk",
                        group_size=len(group),
                        shared_with_trace=primary_id,
                    )
                self._finish_trace(p)

    def _serve_topk_once(
        self,
        group: List[PendingQuery],
        stats: Counters,
        epoch: Epoch,
    ) -> None:
        """One executor run serves every top-k request in ``group``."""
        k_max = max(p.query.k for p in group)
        cached = self._cached_topk(k_max)
        if cached is not None:
            prefix, _exhausted = cached
            for pending in group:
                self._respond(
                    pending,
                    prefix[: pending.query.k],
                    partial=False,
                    cache_hit=True,
                    epoch=epoch,
                    kind="topk",
                )
            return
        # Requests already out of time get the (empty) prefix before
        # anything runs — also on a guard-sampled run, which ignores
        # deadlines once it starts.
        now = time.monotonic()
        expired = [
            p
            for p in group
            if p.abs_deadline is not None and now >= p.abs_deadline
        ]
        for pending in expired:
            self._respond(pending, [], partial=True, cache_hit=False,
                          epoch=epoch, kind="topk")
        if expired:
            group = [p for p in group if not p.done()]
            if not group:
                return
            k_max = max(p.query.k for p in group)
        run = self._executor.topk(k_max, stats, epoch)
        try:
            if kernels_enabled() and self.kernel_guard.should_check():
                results = self._guarded_topk(run, k_max)
                for pending in group:
                    self._respond_topk(pending, run, epoch, results)
                exhausted = len(results) < k_max
            else:
                self._progressive_topk(group, run, epoch)
                results, exhausted = run.results, run.exhausted
        finally:
            run.close()
        # Any exact prefix is the exact top-|results| — even a
        # deadline-truncated run warms the cache.
        if run.exact and (results or exhausted):
            self._store_topk(list(results), exhausted, epoch)

    def _progressive_topk(
        self, group: List[PendingQuery], run, epoch: Epoch
    ) -> None:
        """Advance ``run`` until every request is answered.

        Each request resolves as soon as the run holds its ``k`` results;
        one whose deadline passes first gets the prefix emitted so far,
        labelled ``partial`` — an exact prefix of the canonical order
        while the run's coverage is full.
        """
        active = list(group)
        while active:
            now = time.monotonic()
            alive: List[PendingQuery] = []
            for pending in active:
                if (
                    pending.abs_deadline is not None
                    and now >= pending.abs_deadline
                ):
                    self._respond(
                        pending,
                        run.results[: pending.query.k],
                        partial=True,
                        cache_hit=False,
                        epoch=epoch,
                        kind="topk",
                        coverage=run.coverage,
                    )
                else:
                    alive.append(pending)
            active = alive
            if not active:
                break
            want = max(p.query.k for p in active)
            if run.done or len(run.results) >= want:
                break
            if not run.advance(want, active):
                break
            waiting: List[PendingQuery] = []
            for pending in active:
                if run.done or len(run.results) >= pending.query.k:
                    self._respond_topk(pending, run, epoch)
                else:
                    waiting.append(pending)
            active = waiting
        for pending in active:
            # Run drained (or a deeper request already pulled enough):
            # everyone left gets the final answer.
            self._respond_topk(pending, run, epoch)
        run.finish()

    def _guarded_topk(self, run, k_max: int) -> List[UpgradeResult]:
        """A sampled run: the answer is cross-checked before anyone sees it.

        The run is driven to ``k_max`` regardless of deadlines (a
        divergent prefix must never be half-delivered), so every request
        gets its complete validated prefix.  The scalar oracle reruns the
        *same* method in-process, so a disagreement indicts the kernels,
        not the plan.  Only an ``exact`` run is compared: a reduced-
        coverage or degraded sharded answer differs from the oracle by
        design and is served with its labels.
        """
        while not run.done and len(run.results) < k_max:
            if not run.advance(k_max, ()):
                break
        run.finish()
        results = run.results
        if not run.exact:
            return results
        oracle = self._oracle_topk(k_max, run.method)
        guard = self.kernel_guard
        agree = len(results) == len(oracle) and all(
            served.record_id == truth.record_id
            and guard.costs_match(served.cost, truth.cost)
            for served, truth in zip(results, oracle)
        )
        if agree:
            return results
        if guard.record_divergence(
            divergence(
                "topk",
                [(r.record_id, r.cost) for r in results],
                [(r.record_id, r.cost) for r in oracle],
            )
        ):
            self._metrics.record_quarantine()
        return oracle

    def _respond_topk(
        self,
        pending: PendingQuery,
        run,
        epoch: Epoch,
        results: Optional[List[UpgradeResult]] = None,
    ) -> None:
        """The final answer: ``partial`` unless the run was exact."""
        if results is None:
            results = run.results
        self._respond(
            pending,
            results[: pending.query.k],
            partial=not run.exact,
            cache_hit=False,
            epoch=epoch,
            kind="topk",
            coverage=run.coverage,
        )

    def _respond(
        self,
        pending: PendingQuery,
        results: List[UpgradeResult],
        partial: bool,
        cache_hit: bool,
        epoch: Epoch,
        kind: str,
        coverage: float = 1.0,
    ) -> None:
        now = time.monotonic()
        response = QueryResponse(
            results=list(results),
            partial=partial,
            cache_hit=cache_hit,
            epoch=epoch,
            queue_wait_s=pending.queue_wait_s,
            elapsed_s=now - pending.enqueued_at,
            coverage=coverage,
        )
        self._metrics.record_request(
            kind,
            response.elapsed_s,
            response.queue_wait_s,
            partial=partial,
            coverage=coverage,
        )
        if pending.trace is not None:
            pending.trace.attrs.update(
                cache_hit=cache_hit,
                partial=partial,
                results=len(results),
                coverage=round(coverage, 4),
                queue_wait_s=round(response.queue_wait_s, 6),
                elapsed_s=round(response.elapsed_s, 6),
            )
        pending._resolve(response)

    # -- observability ---------------------------------------------------------

    def _finish_trace(self, pending: PendingQuery) -> None:
        """Close a request's root span and hand the trace to the tracer.

        Idempotent (the trace is detached from the pending on the first
        call): the normal resolve path and the crash backstop can both
        reach it.  Kept traces land in :attr:`trace_store`.
        """
        trace = pending.trace
        if trace is None:
            return
        pending.trace = None
        if pending._exception is not None:
            trace.attrs.setdefault(
                "error", type(pending._exception).__name__
            )
        trace.spans[0].close()
        keep, _ = self.tracer.finish(trace)
        if keep:
            self.trace_store.add(trace)

    def recent_traces(self, n: Optional[int] = None) -> List[Trace]:
        """The kept traces, oldest first (the last ``n`` when given).

        Use ``engine.trace_store.slowest(n)`` for the latency outliers —
        the ``skyup trace`` CLI prints those.
        """
        traces = self.trace_store.snapshot()
        if n is not None:
            traces = traces[-n:]
        return traces

    def _calling_thread_counters(self) -> Counters:
        ident = threading.get_ident()
        with self._extern_lock:
            counters = self._extern_counters.get(ident)
            if counters is None:
                counters = Counters()
                self._extern_counters[ident] = counters
            return counters

    def guard_counters(self) -> Counters:
        """Work performed by the kernel guard's oracle recomputes.

        Kept apart from :meth:`counters` so request-work accounting still
        matches a serial (unguarded) run exactly.
        """
        total = Counters()
        with self._guard_stats_lock:
            total.merge(self._guard_stats)
        return total

    def counters(self) -> Counters:
        """Merged work counters across every worker and sync caller.

        Per-worker instances are merged into a fresh object — the
        originals keep accumulating race-free on their owning threads.
        Guard-recompute work is excluded (see :meth:`guard_counters`),
        and so is work done inside shard worker processes.
        """
        total = Counters()
        if self._pool is not None:
            for c in self._pool.worker_counters:
                total.merge(c)
        with self._extern_lock:
            for c in self._extern_counters.values():
                total.merge(c)
        return total

    def shard_stats(self) -> Optional[Dict[str, object]]:
        """Shard topology and per-process health (None in-process)."""
        return self._executor.describe()["shards"]

    def metrics(self) -> Dict[str, object]:
        """One JSON-serializable snapshot of engine health.

        The key set is the same on both tiers; a section that only one
        executor has (``planner``, ``shards``, ``shard_health``, the
        worker-process counts under ``reliability``) is ``None`` on the
        other.
        """
        injector = active_injector()
        executor = self._executor.describe()
        return self._metrics.snapshot(
            counters=self.counters(),
            extra={
                "epoch": list(self.session.epoch),
                "config": self.config.describe(),
                "tracing": {
                    **self.tracer.stats(),
                    "store": self.trace_store.stats(),
                },
                "queue_depth": (
                    self._pool.queue_depth if self._pool is not None else 0
                ),
                "reliability": {
                    "kernel_guard": self.kernel_guard.stats(),
                    "guard_work": self.guard_counters().as_dict(),
                    "index_guard": self.index_guard.stats(),
                    "pool_crashes": (
                        self._pool.crash_count
                        if self._pool is not None
                        else 0
                    ),
                    "fault_injection": (
                        injector.stats() if injector is not None else None
                    ),
                    "worker_crashes": executor["worker_crashes"],
                    "worker_respawns": executor["worker_respawns"],
                },
                "planner": executor["planner"],
                "shards": executor["shards"],
                "shard_health": executor["shard_health"],
                "cache_enabled": self.cache_enabled,
                "skyline_cache": {
                    **self.skyline_cache.stats.as_dict(),
                    "hit_rate": self.skyline_cache.stats.hit_rate,
                    "size": len(self.skyline_cache),
                    "capacity": self.skyline_cache.max_entries,
                },
                "topk_cache": {
                    **self.topk_cache.stats.as_dict(),
                    "hit_rate": self.topk_cache.stats.hit_rate,
                    "prefix_length": self.topk_cache.prefix_length,
                },
            },
        )

    def __repr__(self) -> str:
        workers = (
            len(self._pool.worker_counters) if self._pool is not None else 0
        )
        return (
            f"UpgradeEngine(session={self.session!r}, workers={workers}, "
            f"processes={self.config.processes}, "
            f"cache={'on' if self.cache_enabled else 'off'})"
        )
