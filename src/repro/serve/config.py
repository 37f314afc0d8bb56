"""The consolidated serving-engine configuration.

:class:`EngineConfig` is the one place every :class:`UpgradeEngine`
tunable lives.  It is a frozen dataclass so a config can be shared
between engines, logged, and compared; ``dataclasses.replace`` derives
variants (the benchmark harness builds its cold/warm configs that way).
Validation happens at construction — a bad value fails fast with a
:class:`~repro.exceptions.ConfigurationError` instead of surfacing as a
confusing runtime failure deep inside the pool or tracer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional

from repro.exceptions import ConfigurationError, UnknownOptionError
from repro.reliability.guards import KernelGuard
from repro.reliability.retry import RetryPolicy

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Every :class:`~repro.serve.engine.UpgradeEngine` tunable.

    Attributes:
        workers: worker-pool threads (0 = synchronous-only engine: no
            pool, ``submit`` unavailable, ``query``/``execute_batch``
            still work).
        method: how whole-catalog top-k queries execute — ``"auto"``
            (default: the engine's cost-based planner picks per catalog
            epoch and re-plans on calibration feedback), ``"join"`` (the
            fixed pre-planner behaviour), or ``"probing"`` (fixed
            improved probing).
        queue_capacity: admission bound of the request queue.
        batch_max: largest batch a worker drains at once.
        cache: enable the epoch-versioned caches (disable to measure
            the cold path — ``skyup serve-bench`` does exactly that).
        skyline_cache_entries: LRU capacity of the skyline cache.
        default_deadline_s: deadline applied to queries that do not
            carry their own (``None`` = no deadline).
        metrics_window: rolling latency window of the metrics layer.
        retry_policy: backoff policy for transiently-failed requests
            (``None`` = the default :class:`RetryPolicy`; use
            ``RetryPolicy(max_attempts=1)`` to disable retries).
        kernel_guard: the sampling kernel-vs-scalar cross-checker
            (``None`` = a default 5%-sampling guard; use
            ``KernelGuard(sample_rate=0.0)`` to disable).
        index_check_every: validate both R-trees every N-th catalog
            mutation (0 = never).
        trace_sample_rate: fraction of requests traced by the
            structured tracer (0.0 = tracing off — the allocation-free
            fast path).
        trace_slow_s: when set, every request is recorded and traces at
            least this slow are always kept, even when the sampling
            draw said no (tail-based sampling).
        trace_store_capacity: ring-buffer capacity of kept traces
            (``engine.recent_traces()``).
        trace_seed: PRNG seed for the sampling draws.
        trace_max_spans: per-trace span cap (runaway-loop backstop).
        processes: picks the engine's executor.  0 (default) executes
            in-process (:class:`~repro.serve.engine.LocalExecutor`);
            N > 0 partitions the competitor catalog over N shard worker
            processes (:class:`~repro.shard.engine.ShardExecutor`).
            Every other option means the same on both tiers; the
            ``hedge_delay_s`` … ``shard_rpc_timeout_s`` options only
            apply when N > 0.
        shards: competitor-catalog partitions (0 = one per process).
            May exceed ``processes`` — a process then hosts several
            shards and pre-merges their answers locally.
        hedge_delay_s: sharded tier only — fixed delay before a
            straggling shard RPC is re-issued (idempotent hedging).
            ``None`` (default) selects the adaptive policy: hedge at
            p95 × 3 of observed shard-RPC latency once calibrated.
        breaker_threshold: consecutive shard-RPC failures (crashes,
            RPC-bound timeouts) that trip a process's circuit breaker;
            tripped processes are skipped (answers degrade to
            ``coverage < 1``) until a half-open probe succeeds.
            0 disables breakers.
        breaker_cooldown_s: initial wait before a tripped breaker is
            probed; doubles on every failed probe (capped).
        health_interval_s: period of the shard-health supervisor thread
            (breaker probes + health scoring).
        shard_rpc_timeout_s: upper bound on any single shard RPC wait
            when the request deadline is not the binding constraint
            (``None`` = unbounded — not recommended; a dropped reply
            would then wait forever).
    """

    workers: int = 2
    method: str = "auto"
    queue_capacity: int = 1024
    batch_max: int = 64
    cache: bool = True
    skyline_cache_entries: int = 4096
    default_deadline_s: Optional[float] = None
    metrics_window: int = 2048
    retry_policy: Optional[RetryPolicy] = None
    kernel_guard: Optional[KernelGuard] = None
    index_check_every: int = 64
    trace_sample_rate: float = 0.0
    trace_slow_s: Optional[float] = None
    trace_store_capacity: int = 64
    trace_seed: int = 2012
    trace_max_spans: int = 20_000
    processes: int = 0
    shards: int = 0
    hedge_delay_s: Optional[float] = None
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 0.5
    health_interval_s: float = 0.25
    shard_rpc_timeout_s: Optional[float] = 30.0

    #: Execution strategies the engine knows how to drive.
    METHODS = ("auto", "join", "probing")

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.method not in self.METHODS:
            raise UnknownOptionError("method", self.method, self.METHODS)
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.batch_max < 1:
            raise ConfigurationError(
                f"batch_max must be >= 1, got {self.batch_max}"
            )
        if self.skyline_cache_entries < 1:
            raise ConfigurationError(
                f"skyline_cache_entries must be >= 1, got "
                f"{self.skyline_cache_entries}"
            )
        if self.metrics_window < 1:
            raise ConfigurationError(
                f"metrics_window must be >= 1, got {self.metrics_window}"
            )
        if (
            self.default_deadline_s is not None
            and self.default_deadline_s < 0
        ):
            # 0.0 is legal: an already-expired deadline immediately yields
            # a partial response (the degradation path, testable directly).
            raise ConfigurationError(
                f"default_deadline_s must be >= 0, got "
                f"{self.default_deadline_s}"
            )
        if self.index_check_every < 0:
            raise ConfigurationError(
                f"index_check_every must be >= 0, got "
                f"{self.index_check_every}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigurationError(
                f"trace_sample_rate must be in [0, 1], got "
                f"{self.trace_sample_rate}"
            )
        if self.trace_slow_s is not None and self.trace_slow_s < 0:
            raise ConfigurationError(
                f"trace_slow_s must be >= 0, got {self.trace_slow_s}"
            )
        if self.trace_store_capacity < 1:
            raise ConfigurationError(
                f"trace_store_capacity must be >= 1, got "
                f"{self.trace_store_capacity}"
            )
        if self.trace_max_spans < 1:
            raise ConfigurationError(
                f"trace_max_spans must be >= 1, got {self.trace_max_spans}"
            )
        if self.processes < 0:
            raise ConfigurationError(
                f"processes must be >= 0, got {self.processes}"
            )
        if self.shards < 0:
            raise ConfigurationError(
                f"shards must be >= 0, got {self.shards}"
            )
        if self.shards and self.processes and self.shards < self.processes:
            raise ConfigurationError(
                f"shards ({self.shards}) must be >= processes "
                f"({self.processes}): an idle worker process would own "
                f"no partition"
            )
        if self.hedge_delay_s is not None and self.hedge_delay_s < 0:
            raise ConfigurationError(
                f"hedge_delay_s must be >= 0, got {self.hedge_delay_s}"
            )
        if self.breaker_threshold < 0:
            raise ConfigurationError(
                f"breaker_threshold must be >= 0, got "
                f"{self.breaker_threshold}"
            )
        if self.breaker_cooldown_s <= 0:
            raise ConfigurationError(
                f"breaker_cooldown_s must be > 0, got "
                f"{self.breaker_cooldown_s}"
            )
        if self.health_interval_s <= 0:
            raise ConfigurationError(
                f"health_interval_s must be > 0, got "
                f"{self.health_interval_s}"
            )
        if (
            self.shard_rpc_timeout_s is not None
            and self.shard_rpc_timeout_s <= 0
        ):
            raise ConfigurationError(
                f"shard_rpc_timeout_s must be > 0, got "
                f"{self.shard_rpc_timeout_s}"
            )

    @classmethod
    def field_names(cls) -> tuple:
        """The configurable field names."""
        return tuple(f.name for f in fields(cls))

    def describe(self) -> Dict[str, object]:
        """A JSON-ready snapshot of every field.

        The two policy objects are expanded to their own parameter
        dicts; ``None`` stays ``None`` so the reader can tell "engine
        default" from an explicit policy.
        """
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, RetryPolicy):
                value = asdict(value)
            elif isinstance(value, KernelGuard):
                value = {
                    "sample_rate": value.sample_rate,
                    "tolerance": value.tolerance,
                    "quarantine_after": value.quarantine_after,
                }
            out[f.name] = value
        return out
