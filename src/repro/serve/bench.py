"""Serving-layer benchmark: cached engine vs cold per-query execution.

The workload models the serving shape the ROADMAP targets: a large stream
of requests over a *small working set* of popular products (every real
catalog has hot items) with periodic whole-catalog top-k refreshes.  The
same request sequence is replayed twice through identical engines — one
with the epoch-versioned caches enabled, one executing every query cold —
and throughput is compared.  ``skyup serve-bench`` is the CLI wrapper;
``benchmarks/results/BENCH_serve.json`` records a baseline produced by it.

Requests are pre-generated so both runs execute the byte-identical
sequence, and both runs use the synchronous execution path (no worker
pool) so the measurement compares query execution, not thread scheduling.

With ``--fault-rate > 0`` the replay runs under seeded fault injection
(:mod:`repro.reliability.faults`): each run installs its own injector
built from the same :class:`~repro.reliability.faults.FaultPlan`, so both
modes see the identical draw sequence, and requests that still fail after
retries are counted rather than aborting the replay.  The report then
carries a ``reliability`` section per mode (errors, retries, cache
faults, fired counts).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.session import MarketSession
from repro.obs import Trace
from repro.reliability.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    inject_faults,
)
from repro.reliability.guards import KernelGuard
from repro.serve.config import EngineConfig
from repro.serve.engine import ProductQuery, Query, TopKQuery, UpgradeEngine

_BATCH = 32


def build_session(
    n_competitors: int = 4000,
    n_products: int = 1500,
    dims: int = 3,
    distribution: str = "independent",
    seed: int = 2012,
    max_entries: int = 32,
) -> MarketSession:
    """A bulk-loaded session over the paper's synthetic market layout."""
    from repro.bench.workloads import serve_session

    return serve_session(
        distribution,
        n_competitors,
        n_products,
        dims,
        seed=seed,
        max_entries=max_entries,
    )


def generate_requests(
    n_requests: int,
    n_products: int,
    hot_pool: int = 64,
    topk_every: int = 25,
    k: int = 5,
    seed: int = 7,
) -> List[Query]:
    """A repeated-query request stream.

    Every ``topk_every``-th request is a :class:`TopKQuery`; the rest are
    :class:`ProductQuery` draws from a ``hot_pool``-sized working set of
    product ids (drawn with replacement, so popular ids repeat — the
    regime caching is for).
    """
    rng = np.random.default_rng(seed)
    pool = rng.choice(
        n_products, size=min(hot_pool, n_products), replace=False
    )
    requests: List[Query] = []
    for i in range(n_requests):
        if topk_every and i % topk_every == 0:
            requests.append(TopKQuery(k=k))
        else:
            requests.append(ProductQuery(int(rng.choice(pool))))
    return requests


def _replay(
    session: MarketSession,
    requests: List[Query],
    cache: bool,
    fault_plan: Optional[FaultPlan] = None,
    method: str = "join",
    processes: int = 0,
    shards: int = 0,
    hedge_delay_s: Optional[float] = None,
    breaker_threshold: int = 5,
) -> Dict[str, object]:
    # The guard is pinned off: its sampled scalar-oracle recomputes are a
    # reliability cost, not query-execution cost, and would skew the
    # cached-vs-cold comparison against the recorded baseline.
    config = EngineConfig(
        workers=0,
        cache=cache,
        method=method,
        processes=processes,
        shards=shards,
        hedge_delay_s=hedge_delay_s,
        breaker_threshold=breaker_threshold,
        kernel_guard=KernelGuard(sample_rate=0.0),
    )
    # Fault injectors are process-local: with processes > 0 only
    # coordinator-side points (the caches) can fire — the shard workers
    # run in their own processes and never see the armed plan.
    engine = UpgradeEngine(session, config)
    injector: Optional[FaultInjector] = None
    try:
        start = time.perf_counter()
        if fault_plan is not None:
            with inject_faults(fault_plan) as injector:
                hits, failures = _drain(engine, requests)
        else:
            hits, failures = _drain(engine, requests)
        elapsed = time.perf_counter() - start
        metrics = engine.metrics()
    finally:
        engine.close()
    out = {
        "cache": cache,
        "requests": len(requests),
        "elapsed_s": elapsed,
        "throughput_rps": len(requests) / elapsed if elapsed > 0 else 0.0,
        "cache_hits": hits,
        "cache_hit_rate": hits / len(requests) if requests else 0.0,
        "latency_s": metrics["latency_s"],
        "counters": metrics["counters"],
        "timings_s": metrics.get("timings_s", {}),
        "planner": (
            {
                "plans_chosen": metrics["planner"]["plans_chosen"],
                "replans": metrics["planner"]["replans"],
                "version": metrics["planner"]["version"],
            }
            if metrics.get("planner") is not None
            else None
        ),
        "reliability": {
            "failed_requests": failures,
            "retries": metrics["retries"],
            "cache_faults": metrics["cache_faults"],
            "worker_crashes": metrics["worker_crashes"],
            "quarantines": metrics["quarantines"],
        },
    }
    if processes > 0:
        out["shards"] = metrics["shards"]
        out["reliability"]["worker_respawns"] = metrics["reliability"][
            "worker_respawns"
        ]
        health = metrics["shard_health"]
        hedge = health["hedge"]
        issued = hedge["hedges"]
        out["resilience"] = {
            "hedges_issued": issued,
            "hedges_won": hedge["wins"],
            "hedge_rate": issued / len(requests) if requests else 0.0,
            "breaker_trips": health["breaker_trips"],
            "breaker_skips": health["breaker_skips"],
            "rpc_timeouts": health["rpc_timeouts"],
            "deadline_truncations": health["deadline_truncations"],
            "partials": metrics["partials"],
            "degraded": metrics["degraded"],
            "coverage": metrics["coverage"],
        }
    if injector is not None:
        out["reliability"]["faults_fired"] = {
            point: counts["fired"]
            for point, counts in injector.stats().items()
        }
    return out


def _drain(
    engine: UpgradeEngine, requests: List[Query]
) -> Tuple[int, int]:
    """Replay ``requests`` through ``engine``; returns (hits, failures).

    Failed slots (typed errors under fault injection) are counted, not
    raised — a chaos replay must survive its own faults.
    """
    hits = 0
    failures = 0
    for lo in range(0, len(requests), _BATCH):
        batch = requests[lo:lo + _BATCH]
        for response in engine.execute_batch(batch, raise_errors=False):
            if isinstance(response, BaseException):
                failures += 1
            elif response.cache_hit:
                hits += 1
    return hits, failures


def run_serve_bench(
    n_competitors: int = 4000,
    n_products: int = 1500,
    dims: int = 3,
    distribution: str = "independent",
    n_requests: int = 2000,
    hot_pool: int = 64,
    topk_every: int = 25,
    k: int = 5,
    seed: int = 2012,
    session: Optional[MarketSession] = None,
    fault_rate: float = 0.0,
    fault_points: Optional[List[str]] = None,
    fault_seed: Optional[int] = None,
    method: str = "join",
    processes: int = 0,
    shards: int = 0,
    hedge_delay_s: Optional[float] = None,
    breaker_threshold: int = 5,
) -> Dict[str, object]:
    """Run the cached-vs-cold comparison; returns a JSON-ready report.

    ``report["speedup"]`` is cached throughput over cold throughput on the
    identical request sequence.  ``fault_rate > 0`` arms ``fault_points``
    (default: ``serve.cache`` and ``rtree.query``) with error faults at
    that rate for both runs, from the same seed.  ``method`` is the
    engine execution strategy for whole-catalog top-k requests
    (``"join"``, the recorded baseline's behaviour; ``"probing"``; or
    ``"auto"`` — each run's report then carries the planner's chosen
    physical plans under ``report[mode]["planner"]``).

    ``processes > 0`` replays the same request sequence a third time
    through the cached sharded :class:`UpgradeEngine` at
    that process count (``shards`` defaults to one per process); the
    ``report["sharded"]`` run then carries topology and per-process
    health — owned shards, queue depth, crash/respawn counts — under
    ``report["sharded"]["shards"]``, plus a ``resilience`` section
    (hedge rate, breaker trips/skips, coverage percentiles).
    ``hedge_delay_s`` and ``breaker_threshold`` tune the sharded run's
    hedged-scatter delay and circuit breakers (``skyup serve-bench
    --hedge-delay/--breaker-threshold``).  Coordinator-side fault
    points (``shard.transport.*``) *do* fire for the sharded run when
    armed explicitly; the default cache/rtree points live in the
    workers' processes and would never see the injector, so faults are
    not armed for the sharded run unless the caller names transport
    points.
    """
    if session is None:
        session = build_session(
            n_competitors, n_products, dims, distribution, seed
        )
    requests = generate_requests(
        n_requests,
        session.product_count,
        hot_pool=hot_pool,
        topk_every=topk_every,
        k=k,
        seed=seed + 1,
    )
    fault_plan = None
    if fault_rate > 0.0:
        fault_plan = FaultPlan(
            seed=fault_seed if fault_seed is not None else seed,
            rate=fault_rate,
            points=tuple(fault_points or ("serve.cache", "rtree.query")),
        )
    cold = _replay(
        session, requests, cache=False, fault_plan=fault_plan, method=method
    )
    cached = _replay(
        session, requests, cache=True, fault_plan=fault_plan, method=method
    )
    speedup = (
        cached["throughput_rps"] / cold["throughput_rps"]
        if cold["throughput_rps"]
        else float("inf")
    )
    sharded = None
    if processes > 0:
        transport_plan = None
        if fault_plan is not None:
            # Only coordinator-side transport points can fire in the
            # sharded run; re-key their kinds to what each site consults
            # (delay is a maybe_inject latency site, drop/dup are
            # maybe_corrupt sites) so plain-name arming does what the
            # flag says instead of silently doing nothing.
            transport_specs: Dict[str, FaultSpec] = {}
            for point, spec in fault_plan.specs().items():
                if not point.startswith("shard.transport."):
                    continue
                if point == "shard.transport.delay":
                    if spec.kind == "error":
                        spec = FaultSpec(rate=spec.rate, kind="latency")
                elif spec.kind != "corrupt":
                    spec = FaultSpec(rate=spec.rate, kind="corrupt")
                transport_specs[point] = spec
            if transport_specs:
                transport_plan = FaultPlan(
                    seed=fault_plan.seed,
                    rate=fault_plan.rate,
                    points=transport_specs,
                )
        sharded = _replay(
            session,
            requests,
            cache=True,
            fault_plan=transport_plan,
            method=method,
            processes=processes,
            shards=shards,
            hedge_delay_s=hedge_delay_s,
            breaker_threshold=breaker_threshold,
        )
    report = {
        "workload": {
            "distribution": distribution,
            "competitors": session.competitor_count,
            "products": session.product_count,
            "dims": session.dims,
            "requests": n_requests,
            "hot_pool": hot_pool,
            "topk_every": topk_every,
            "k": k,
            "seed": seed,
            "method": method,
            "processes": processes,
            "shards": shards or (processes if processes else 0),
            "hedge_delay_s": hedge_delay_s,
            "breaker_threshold": breaker_threshold,
        },
        "cold": cold,
        "cached": cached,
        "speedup": speedup,
        "faults": (
            {
                "rate": fault_plan.rate,
                "seed": fault_plan.seed,
                "points": sorted(fault_plan.specs()),
            }
            if fault_plan is not None
            else None
        ),
    }
    if sharded is not None:
        report["sharded"] = sharded
    return report


def run_trace_workload(
    n_competitors: int = 2000,
    n_products: int = 800,
    dims: int = 3,
    distribution: str = "independent",
    n_requests: int = 200,
    hot_pool: int = 32,
    topk_every: int = 25,
    k: int = 5,
    seed: int = 2012,
    workers: int = 2,
    session: Optional[MarketSession] = None,
) -> List[Trace]:
    """Replay a request stream with tracing on; returns the kept traces.

    Every request is traced (``trace_sample_rate=1.0``) and the trace
    store is sized to hold the whole stream, so the caller can rank all
    of them — ``skyup trace`` dumps the slowest N.  The pooled submission
    path is used (unlike :func:`run_serve_bench`'s synchronous replay):
    the point of a trace dump is to see queue waits and batch execution,
    which only exist with workers.
    """
    if session is None:
        session = build_session(
            n_competitors, n_products, dims, distribution, seed
        )
    requests = generate_requests(
        n_requests,
        session.product_count,
        hot_pool=hot_pool,
        topk_every=topk_every,
        k=k,
        seed=seed + 1,
    )
    config = EngineConfig(
        workers=max(1, workers),
        queue_capacity=max(1024, len(requests)),
        trace_sample_rate=1.0,
        trace_store_capacity=max(1, len(requests)),
        trace_seed=seed,
    )
    with UpgradeEngine(session, config) as engine:
        pending = engine.submit_batch(requests)
        for p in pending:
            p.result()
        return engine.recent_traces()


def format_report(report: Dict[str, object]) -> str:
    """Human-readable table for the CLI."""
    wl = report["workload"]
    modes = ["cold", "cached"]
    if "sharded" in report:
        modes.append("sharded")
    lines = [
        (
            f"# serve-bench: |P|={wl['competitors']} |T|={wl['products']} "
            f"d={wl['dims']} {wl['distribution']}; "
            f"{wl['requests']} requests (hot pool {wl['hot_pool']}, "
            f"top-{wl['k']} every {wl['topk_every']})"
        ),
        (
            f"{'mode':8s} {'elapsed_s':>10s} {'req/s':>10s} "
            f"{'hit_rate':>9s} {'p50_ms':>8s} {'p95_ms':>8s}"
        ),
    ]
    for mode in modes:
        run = report[mode]
        lat = run["latency_s"]
        lines.append(
            f"{mode:8s} {run['elapsed_s']:10.3f} "
            f"{run['throughput_rps']:10.1f} "
            f"{run['cache_hit_rate']:9.2%} "
            f"{lat['p50'] * 1e3:8.3f} {lat['p95'] * 1e3:8.3f}"
        )
    lines.append(f"speedup (cached/cold): {report['speedup']:.2f}x")
    shard_run = report.get("sharded")
    if shard_run is not None:
        stats = shard_run["shards"]
        rel = shard_run["reliability"]
        lines.append(
            f"sharded: {stats['n_processes']} processes x "
            f"{stats['n_shards']} shards "
            f"(respawns={rel['worker_respawns']})"
        )
        for proc in stats["per_process"]:
            owned = ",".join(str(s) for s in proc["shards"])
            lines.append(
                f"  proc {proc['proc']}: shards=[{owned}] "
                f"queue_depth={proc['queue_depth']} "
                f"crashes={proc['crashes']} "
                f"respawns={proc['respawns']} "
                f"alive={proc['alive']}"
            )
        res = shard_run.get("resilience")
        if res is not None:
            cov = res["coverage"]
            lines.append(
                f"  resilience: hedge_rate={res['hedge_rate']:.2%} "
                f"(issued={res['hedges_issued']} won={res['hedges_won']}) "
                f"breaker_trips={res['breaker_trips']} "
                f"skips={res['breaker_skips']} "
                f"rpc_timeouts={res['rpc_timeouts']}"
            )
            lines.append(
                f"  coverage: mean={cov['mean']:.3f} p50={cov['p50']:.3f} "
                f"p05={cov['p05']:.3f} partials={res['partials']} "
                f"degraded={res['degraded']}"
            )
    for mode in ("cold", "cached"):
        planner = report[mode].get("planner")
        if planner:
            chosen = ", ".join(
                f"{label}×{count}"
                for label, count in sorted(planner["plans_chosen"].items())
            ) or "none"
            lines.append(
                f"  {mode:8s} plans: {chosen} "
                f"(replans={planner['replans']})"
            )
    split = _timing_split(report)
    if split:
        lines.append(split)
    faults = report.get("faults")
    if faults:
        lines.append(
            f"chaos: rate={faults['rate']} seed={faults['seed']} "
            f"points={','.join(faults['points'])}"
        )
        for mode in ("cold", "cached"):
            rel = report[mode]["reliability"]
            fired = sum((rel.get("faults_fired") or {}).values())
            lines.append(
                f"  {mode:8s} fired={fired} failed={rel['failed_requests']} "
                f"retries={rel['retries']} "
                f"cache_faults={rel['cache_faults']} "
                f"crashes={rel['worker_crashes']}"
            )
    return "\n".join(lines)


def _timing_split(report: Dict[str, object]) -> str:
    """Kernel-vs-scalar time split across both runs (empty if untimed)."""
    kernel = scalar = 0.0
    for mode in ("cold", "cached"):
        timings = report[mode].get("timings_s") or {}
        for name, seconds in timings.items():
            if name.startswith("kernel."):
                kernel += seconds
            elif name.startswith("scalar."):
                scalar += seconds
    total = kernel + scalar
    if total <= 0.0:
        return ""
    return (
        f"hot-path split: kernel {kernel:.3f}s ({kernel / total:.1%}), "
        f"scalar {scalar:.3f}s ({scalar / total:.1%})"
    )
