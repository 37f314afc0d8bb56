"""Sharded-engine scaling benchmark: throughput across process counts.

The workload is the serving benchmark's repeated-query stream
(:func:`repro.serve.bench.generate_requests`) with catalog writes mixed
in — every ``write_every`` requests an ``add_competitor`` followed by a
``remove_competitor`` of an earlier insert, so each measured run
exercises the whole mutation path (eager segment republish, epoch bump,
incremental worker sync) while the catalog size stays stable.

Each process count replays the byte-identical request sequence twice
(cold and cached) through a fresh session, and a single-process
:class:`~repro.serve.engine.UpgradeEngine` pair anchors the comparison.
``benchmarks/results/BENCH_shard.json`` records a run; the report embeds
the machine (CPU count, platform) because scatter-gather scaling is
meaningless without it — on a single-core container every extra process
only adds coordination cost, and the recorded numbers say so honestly.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.bench import build_session, generate_requests
from repro.serve.config import EngineConfig
from repro.serve.engine import Query, UpgradeEngine

_BATCH = 32


def make_write_points(
    n_writes: int, dims: int, seed: int
) -> List[Tuple[float, ...]]:
    rng = np.random.default_rng(seed)
    return [
        tuple(float(v) for v in rng.uniform(0.0, 1.0, size=dims))
        for _ in range(n_writes)
    ]


def replay_mixed(
    engine: object,
    requests: Sequence[Query],
    write_points: Sequence[Tuple[float, ...]],
    write_every: int,
) -> Dict[str, object]:
    """Replay ``requests`` with interleaved writes; returns cell stats.

    Writes come in add/remove pairs against ``write_points`` (each added
    competitor is removed by the *next* write slot), so the catalog ends
    the run at its starting size and every run sees the same sequence.
    """
    hits = 0
    writes = 0
    pending_removal: Optional[int] = None
    next_write = write_every if write_every else len(requests) + 1
    start = time.perf_counter()
    for lo in range(0, len(requests), _BATCH):
        batch = list(requests[lo:lo + _BATCH])
        for response in engine.execute_batch(batch):
            if response.cache_hit:
                hits += 1
        while next_write <= lo + len(batch):
            if pending_removal is not None:
                engine.remove_competitor(pending_removal)
            point = write_points[writes % len(write_points)]
            pending_removal = engine.add_competitor(point)
            writes += 1
            next_write += write_every
    if pending_removal is not None:
        engine.remove_competitor(pending_removal)
    elapsed = time.perf_counter() - start
    n = len(requests)
    return {
        "requests": n,
        "writes": writes,
        "elapsed_s": elapsed,
        "throughput_rps": n / elapsed if elapsed > 0 else 0.0,
        "cache_hits": hits,
        "cache_hit_rate": hits / n if n else 0.0,
    }


def _run_cell(
    cache: bool,
    processes: int,
    shards: int,
    requests: Sequence[Query],
    write_points: Sequence[Tuple[float, ...]],
    write_every: int,
    method: str,
    session_kwargs: Dict[str, object],
) -> Dict[str, object]:
    # A fresh session per cell: the mixed writes mutate it, and every
    # cell must start from the identical catalog.
    session = build_session(**session_kwargs)
    config = EngineConfig(
        workers=0,
        cache=cache,
        method=method,
        processes=processes,
        shards=shards,
    )
    engine = UpgradeEngine(session, config)
    try:
        out = replay_mixed(engine, requests, write_points, write_every)
        if processes > 0:
            stats = engine.shard_stats()
            out["shards"] = stats
            out["worker_crashes"] = sum(
                p["crashes"] for p in stats["per_process"]
            )
    finally:
        engine.close()
    return out


def run_shard_bench(
    n_competitors: int = 4000,
    n_products: int = 1500,
    dims: int = 3,
    distribution: str = "independent",
    n_requests: int = 600,
    hot_pool: int = 64,
    topk_every: int = 25,
    k: int = 5,
    seed: int = 2012,
    process_counts: Sequence[int] = (1, 2, 4, 8),
    shards_per_process: int = 1,
    write_every: int = 50,
    method: str = "join",
) -> Dict[str, object]:
    """Scaling sweep; returns a JSON-ready report.

    For each entry of ``process_counts`` the identical mixed read/write
    stream replays cold and cached through a sharded engine with
    ``p * shards_per_process`` shards; ``report["baseline"]`` is the
    single-process thread-tier engine on the same stream, and
    ``report["runs"][i]["scaling_vs_baseline"]`` is that run's cached
    throughput over the baseline's.  Interpret scaling together with
    ``report["machine"]["cpu_count"]``.
    """
    session_kwargs = {
        "n_competitors": n_competitors,
        "n_products": n_products,
        "dims": dims,
        "distribution": distribution,
        "seed": seed,
    }
    requests = generate_requests(
        n_requests,
        n_products,
        hot_pool=hot_pool,
        topk_every=topk_every,
        k=k,
        seed=seed + 1,
    )
    n_writes = (n_requests // write_every) if write_every else 0
    write_points = make_write_points(max(1, n_writes), dims, seed + 2)

    def cell(cache: bool, processes: int, shards: int) -> Dict[str, object]:
        return _run_cell(
            cache,
            processes,
            shards,
            requests,
            write_points,
            write_every,
            method,
            session_kwargs,
        )

    baseline = {
        "cold": cell(False, 0, 0),
        "cached": cell(True, 0, 0),
    }
    runs: List[Dict[str, object]] = []
    for p in process_counts:
        shards = p * shards_per_process
        run = {
            "processes": p,
            "shards": shards,
            "cold": cell(False, p, shards),
            "cached": cell(True, p, shards),
        }
        base_rps = baseline["cached"]["throughput_rps"]
        run["scaling_vs_baseline"] = (
            run["cached"]["throughput_rps"] / base_rps
            if base_rps
            else 0.0
        )
        runs.append(run)
    return {
        "workload": {
            "distribution": distribution,
            "competitors": n_competitors,
            "products": n_products,
            "dims": dims,
            "requests": n_requests,
            "hot_pool": hot_pool,
            "topk_every": topk_every,
            "k": k,
            "seed": seed,
            "method": method,
            "write_every": write_every,
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "baseline": baseline,
        "runs": runs,
    }


def format_shard_report(report: Dict[str, object]) -> str:
    """Human-readable scaling table."""
    wl = report["workload"]
    machine = report["machine"]
    lines = [
        (
            f"# shard-bench: |P|={wl['competitors']} |T|={wl['products']} "
            f"d={wl['dims']} {wl['distribution']}; {wl['requests']} "
            f"requests, write every {wl['write_every']}; "
            f"{machine['cpu_count']} CPUs"
        ),
        (
            f"{'engine':14s} {'cold req/s':>11s} {'cached req/s':>13s} "
            f"{'vs baseline':>12s} {'crashes':>8s}"
        ),
    ]
    base = report["baseline"]
    lines.append(
        f"{'thread-tier':14s} {base['cold']['throughput_rps']:11.1f} "
        f"{base['cached']['throughput_rps']:13.1f} {'1.00x':>12s} "
        f"{'-':>8s}"
    )
    for run in report["runs"]:
        label = f"{run['processes']}p x {run['shards']}s"
        lines.append(
            f"{label:14s} {run['cold']['throughput_rps']:11.1f} "
            f"{run['cached']['throughput_rps']:13.1f} "
            f"{run['scaling_vs_baseline']:11.2f}x "
            f"{run['cached'].get('worker_crashes', 0):8d}"
        )
    return "\n".join(lines)
