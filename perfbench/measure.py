"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script with a pinned environment; see README.md
for the workloads and metrics.  Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/measure.py --workload topk-churn \
        --seed 2012 --seconds 40 --trace 0 --out perfbench/out

The last line of standard output is the result JSON.  The exit code is
0 when every op succeeded, every answer check passed and no process or
shared-memory segment the run created is left, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro
from repro import (
    EngineConfig,
    MarketSession,
    ProductQuery,
    ShardedUpgradeEngine,
    TopKQuery,
    UpgradeEngine,
)
from repro.core.verify import brute_force_topk, verify_results
from repro.data.generators import generate, paper_workload
from repro.skyline.vectorized import numpy_skyline, numpy_skyline_mask

import layers

Op = Tuple[str, object]

DIMS = 3
CHURN_P, CHURN_T = 4000, 500
TOPK_KS = (1, 5, 10)
PRODUCTS_PER_CYCLE = 10
LOOKUP_POINTS, LOOKUP_T = 30_000, 10_000
LOOKUP_WRITE_SHARE = 0.10
LOOKUP_ZIPF = 1.1
LOOKUP_IN_FLIGHT = 2
MAX_STRETCH = 1.25  # a run stops early past this multiple of --seconds
CHURN_CATALOG_SEED = 2012
LOOKUP_CYCLE_OPS = 500
COST_TOLERANCE = 1e-9
RESULT_TIMEOUT_S = 60.0
PLAN_LABELS = (
    "join[nlb]", "join[clb]", "join[alb]", "join[max]", "probing",
    "basic-probing",
)


# -- workloads -----------------------------------------------------------------


class Workload:
    """Inputs, engine factory and op stream of one workload.

    A run measures a fixed number of cycles, ``cycles_per_s`` per second
    of ``--seconds``: the cycle rate of a 2-CPU x86-64 host in its
    slower speed phase, so that a run measures at most about
    ``--seconds`` there.  A fixed count keeps the same ops -- and the
    same guard-sampled top-ks -- inside every run, whatever the host's
    speed.
    """

    name = ""
    synchronous = True
    check_every = 32  # cycles between answer checkpoints
    cycles_per_s = 1.0
    setup_samples = 16  # set-up samples spread over a run's cycles

    def cycles(self, seconds: float) -> int:
        return max(1, round(seconds * self.cycles_per_s))

    def __init__(self, seed: int):
        self.seed = seed

    def make_engine(self, session: MarketSession):
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError


class TopKChurn(Workload):
    """Paper §IV layout; every competitor write dominates every product.

    The catalog and its write stream are drawn from
    :data:`CHURN_CATALOG_SEED`; ``seed`` draws the product queries.  From
    one catalog seed to the next the same traffic costs 2x (in-process)
    to 7x (sharded) more or less, and the write stream evolves the
    catalog: under another write stream the same catalog needed 15% more
    dominance tests per top-k and 2.7x more cost evaluations.  Per-seed
    catalogs or writes would bury a code change under catalog noise.
    """

    name = "topk-churn"
    cycles_per_s = 1.2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.competitors, self.products = paper_workload(
            "independent", CHURN_P, CHURN_T, DIMS, CHURN_CATALOG_SEED
        )

    def make_engine(self, session):
        return UpgradeEngine(session, EngineConfig(workers=0))

    def ops(self):
        writes = np.random.default_rng([CHURN_CATALOG_SEED, 2])
        rng = np.random.default_rng([self.seed, 2])
        n = len(self.products)
        for cycle in itertools.count():
            if cycle % 2 == 0:
                yield "add", tuple(float(v) for v in writes.random(DIMS))
            else:
                yield "remove", float(writes.random())
            yield "topk", TOPK_KS[cycle % len(TOPK_KS)]
            # Distinct ids: a repeat within a cycle would be a cache hit,
            # and cache hits shift the kernel guard's draw sequence, so
            # which top-k gets guard-sampled would vary with the seed.
            for pid in rng.choice(n, size=PRODUCTS_PER_CYCLE, replace=False):
                yield "product", int(pid)
            yield "cycle_end", cycle


class ShardedChurn(TopKChurn):
    """The inputs and op sequence of ``topk-churn`` behind two shards."""

    name = "sharded-churn"

    def make_engine(self, session):
        return ShardedUpgradeEngine(
            session, EngineConfig(workers=0, processes=2)
        )


class LookupMix(Workload):
    """Same-space market (§IV-B split); Zipf reads beside 10% writes."""

    name = "lookup-mix"
    synchronous = False
    check_every = 4
    cycles_per_s = 1.8
    setup_samples = 8  # each build takes about 0.5 s

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 3])
        points = generate("anti_correlated", LOOKUP_POINTS, DIMS, rng)
        non_skyline = np.flatnonzero(~numpy_skyline_mask(points))
        chosen = np.zeros(len(points), dtype=bool)
        chosen[rng.choice(non_skyline, size=LOOKUP_T, replace=False)] = True
        self.competitors, self.products = points[~chosen], points[chosen]
        self.fresh = generate("anti_correlated", 4096, DIMS, rng)

    def make_engine(self, session):
        return UpgradeEngine(session, EngineConfig())

    def ops(self):
        rng = np.random.default_rng([self.seed, 4])
        n = len(self.products)
        by_rank = rng.permutation(n)
        fresh = itertools.cycle(tuple(map(float, p)) for p in self.fresh)
        writes = itertools.count()
        for count in itertools.count():
            if rng.random() < LOOKUP_WRITE_SHARE:
                if next(writes) % 2 == 0:
                    yield "add", next(fresh)
                else:
                    yield "remove", float(rng.random())
            else:
                rank = int(rng.zipf(LOOKUP_ZIPF))
                while rank > n:
                    rank = int(rng.zipf(LOOKUP_ZIPF))
                yield "product", int(by_rank[rank - 1])
            if count % LOOKUP_CYCLE_OPS == LOOKUP_CYCLE_OPS - 1:
                yield "cycle_end", count // LOOKUP_CYCLE_OPS


WORKLOADS = {w.name: w for w in (TopKChurn, LookupMix, ShardedChurn)}


# -- measurement ---------------------------------------------------------------


class Failure(Exception):
    """An answer check failed."""


class CpuRotation:
    """Moves the whole process to the next CPU it may use, in turn.

    Each CPU of the 2-CPU host this benchmark was tuned on runs 1.6-2x
    slower for stretches of seconds to minutes, independently of the
    other CPU.  A loop left to the scheduler stays on one CPU long enough
    for most of a run to see one CPU's slow stretch: the single thread of
    a synchronous workload, and the generator and pool threads of
    ``lookup-mix``, which together keep about one CPU busy (CPU time /
    wall time 0.93).  Pinning every thread of the process to the next CPU
    at every cycle gives each run an equal share of every CPU.  In ten
    40 s runs of ``topk-churn`` that ran every op on both CPUs,
    ``ops_per_s`` taken over both CPUs spread 0.074 (IQR / median)
    against 0.106 taken over one CPU.  With a single CPU allowed,
    nothing moves.
    """

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def advance(self) -> None:
        if len(self.allowed) > 1:
            self._pin({self.allowed[self.turn % len(self.allowed)]})
            self.turn += 1

    def release(self) -> None:
        if len(self.allowed) > 1:
            self._pin(set(self.allowed))

    @staticmethod
    def _pin(cpus: set) -> None:
        for tid in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(tid), cpus)
            except ProcessLookupError:  # the thread has just exited
                pass


class Phase:
    """One timed closed-loop phase over a live engine."""

    def __init__(self, workload: Workload, engine, session, log=None):
        self.workload = workload
        self.engine = engine
        self.session = session
        self.log = log
        self.live: List[int] = [cid for cid, _ in enumerate(
            workload.competitors)]
        self.lat: Dict[str, List[float]] = {
            "topk": [], "product": [], "write": []
        }
        self.queue_wait: List[float] = []
        self.write_ops: List[int] = []
        self.guarded_topk: List[float] = []
        self.kinds: List[str] = []
        self.counters: Dict[str, Dict[str, int]] = {}
        self.coverage_min = 1.0
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.check_errors: List[str] = []
        self.timed_s = 0.0
        self.last_topk = None
        self.recent: List[Tuple[int, object]] = []
        self.setups: List[float] = []
        self.setup_every = 1
        self.cycles_planned = self.cycles_run = 0
        self.peak_mb = 0.0

    # -- ops -------------------------------------------------------------------

    def _new_op(self, kind: str) -> int:
        self.kinds.append(kind)
        self.attempted += 1
        return len(self.kinds) - 1

    def _write(self, kind: str, arg) -> None:
        op = self._new_op("write")
        log = self.log
        if log is not None:
            log.set_op(op)
            rec = log.open("serve.engine")
        start = time.perf_counter()
        try:
            if kind == "add":
                self.live.append(self.engine.add_competitor(arg))
            else:
                idx = int(arg * len(self.live))
                self.live[idx], self.live[-1] = self.live[-1], self.live[idx]
                cid = self.live.pop()
                if not self.engine.remove_competitor(cid):
                    self.failed += 1
                    self.check_errors.append(
                        f"remove_competitor({cid}) returned False"
                    )
        except Exception as exc:  # counted against fail_ratio
            self.failed += 1
            self.check_errors.append(f"write raised {exc!r}")
        finally:
            self.lat["write"].append(time.perf_counter() - start)
            if log is not None:
                log.close(rec)
                log.set_op(layers.NO_OP)
        self.write_ops.append(op)
        self.recent.clear()

    def _record_read(self, kind: str, arg, response) -> None:
        if response.partial or response.coverage < 1.0:
            self.failed += 1
            self.check_errors.append(
                f"{kind} {arg}: partial answer, coverage {response.coverage}"
            )
        self.coverage_min = min(self.coverage_min, response.coverage)
        self.lat[kind].append(response.elapsed_s)
        self.queue_wait.append(response.queue_wait_s)
        if kind == "topk":
            self.last_topk = (arg, response)
        else:
            self.recent.append((arg, response))

    def _sync_read(self, kind: str, arg) -> None:
        op = self._new_op(kind)
        log = self.log
        query = TopKQuery(k=arg) if kind == "topk" else ProductQuery(arg)
        guard = getattr(self.engine, "kernel_guard", None)
        checks = guard.checks if guard is not None else 0
        if log is not None:
            before = self.engine.counters().as_dict()
            log.set_op(op)
            rec = log.open("serve.engine")
        try:
            response = self.engine.query(query)
        except Exception as exc:  # counted against fail_ratio
            self.failed += 1
            self.check_errors.append(f"{kind} raised {exc!r}")
            return
        finally:
            if log is not None:
                log.close(rec)
                log.set_op(layers.NO_OP)
                after = self.engine.counters().as_dict()
                acc = self.counters.setdefault(kind, {})
                for name, value in after.items():
                    acc[name] = acc.get(name, 0) + value - before[name]
        self._record_read(kind, arg, response)
        if kind == "topk" and guard is not None and guard.checks > checks:
            self.guarded_topk.append(response.elapsed_s)

    # -- loops -----------------------------------------------------------------

    def run(self, cycles: int, max_s: float) -> None:
        """Run ``cycles`` cycles, or stop at a cycle end past ``max_s``."""
        self.cycles_planned = cycles
        # Odd, so that successive set-up samples fall on alternate CPUs
        # (see CpuRotation).
        self.setup_every = max(1, cycles // self.workload.setup_samples) | 1
        ops = self.workload.ops()
        cpus = CpuRotation()
        try:
            if self.workload.synchronous:
                self._run_sync(ops, cycles, max_s, cpus)
            else:
                self._run_async(ops, cycles, max_s, cpus)
        finally:
            cpus.release()
        self.peak_mb = max(self.peak_mb, vm_hwm_mb())
        self._checkpoint()

    def _done(self, cycle: int, cycles: int, measured: float,
              max_s: float) -> bool:
        if cycle + 1 < cycles and measured < max_s:
            return False
        self.cycles_run = cycle + 1
        return True

    def _off_clock(self, cycle: int) -> float:
        """Answer checks and set-up samples between cycles; returns seconds.

        Set-up samples are spread over the run so that their median sees
        the host's fast and slow phases alike.  The peak RSS is read
        before and reset after, so the oracle and the extra engine never
        count in ``peak_rss_mb``.
        """
        start = time.perf_counter()
        self.peak_mb = max(self.peak_mb, vm_hwm_mb())
        if cycle % self.workload.check_every == 0:
            self._checkpoint()
        if self.log is None and cycle % self.setup_every == 0:
            _, engine, seconds = build(self.workload)
            engine.close()
            self.setups.append(seconds)
        reset_hwm()
        return time.perf_counter() - start

    def _run_sync(self, ops: Iterator[Op], cycles: int, max_s: float,
                  cpus: CpuRotation) -> None:
        cpus.advance()
        start = time.perf_counter()
        paused = 0.0
        for kind, arg in ops:
            if kind == "cycle_end":
                measured = time.perf_counter() - start - paused
                if self._done(arg, cycles, measured, max_s):
                    break
                cpus.advance()
                paused += self._off_clock(arg)
            elif kind in ("add", "remove"):
                self._write(kind, arg)
            else:
                self._sync_read(kind, arg)
        self.timed_s = time.perf_counter() - start - paused

    def _run_async(self, ops: Iterator[Op], cycles: int, max_s: float,
                   cpus: CpuRotation) -> None:
        engine, log = self.engine, self.log
        inflight: deque = deque()

        def settle_oldest() -> None:
            op, pid, query, pending = inflight.popleft()
            try:
                response = pending.result(timeout=RESULT_TIMEOUT_S)
            except Exception as exc:  # counted against fail_ratio
                self.failed += 1
                self.check_errors.append(f"product raised {exc!r}")
                return
            self._record_read("product", pid, response)

        cpus.advance()
        start = time.perf_counter()
        paused = 0.0
        if log is not None:
            before = engine.counters().as_dict()
        for kind, arg in ops:
            if kind == "cycle_end":
                while inflight:
                    settle_oldest()
                measured = time.perf_counter() - start - paused
                if self._done(arg, cycles, measured, max_s):
                    break
                cpus.advance()
                paused += self._off_clock(arg)
            elif kind in ("add", "remove"):
                self._write(kind, arg)
            else:
                op = self._new_op("product")
                query = ProductQuery(arg)
                if log is not None:
                    log.bind_query(query, op)
                inflight.append((op, arg, query, engine.submit(query)))
                while len(inflight) >= LOOKUP_IN_FLIGHT:
                    settle_oldest()
        self.timed_s = time.perf_counter() - start - paused
        if log is not None:
            after = engine.counters().as_dict()
            self.counters["product"] = {
                name: value - before[name] for name, value in after.items()
            }

    # -- answer checks ---------------------------------------------------------

    def _checkpoint(self) -> None:
        """Check the latest answers against the oracle."""
        session = self.session
        competitors, products = session.snapshot()
        ids, _ = session.products_by_id()
        model, config = session.cost_model, session.config
        # The skyline of t's dominators in P equals the part of
        # skyline(P) that dominates t (a dominator of a dominator of t
        # dominates t), so the oracle may scan skyline(P) instead of P:
        # the same answer, without a 4000-point skyline per product on
        # the churn workloads, where P dominates every product.
        oracle_p = (
            numpy_skyline(competitors) if self.last_topk is not None
            else competitors
        )
        try:
            if self.last_topk is not None:
                k, response = self.last_topk
                self.last_topk = None
                if tuple(response.epoch) == self._current_epoch():
                    truth = brute_force_topk(
                        oracle_p, products, model, k, config
                    )
                    expect = [(ids[r.record_id], r.cost) for r in truth]
                    got = [(r.record_id, r.cost) for r in response.results]
                    self._same(expect, got, f"top-{k}")
                    verify_results(response.results, competitors, model)
                    self.checked += 1
            by_id = dict(zip(ids, products))
            for pid, response in self.recent:
                if tuple(response.epoch) != self._current_epoch():
                    continue
                truth = brute_force_topk(
                    oracle_p, [by_id[pid]], model, 1, config
                )
                self._same(
                    [(pid, truth[0].cost)],
                    [(r.record_id, r.cost) for r in response.results],
                    f"product {pid}",
                )
                verify_results(response.results, competitors, model)
                self.checked += 1
        except (Failure, repro.SkyUpError) as exc:
            self.failed += 1
            self.check_errors.append(str(exc))
        self.recent.clear()

    def _current_epoch(self) -> tuple:
        """The engine's current epoch in the shape responses carry."""
        engine = self.engine
        if hasattr(engine, "epoch_vector"):
            return tuple(engine.epoch_vector)
        return tuple(self.session.epoch)

    @staticmethod
    def _same(expect, got, what: str) -> None:
        if len(expect) != len(got) or any(
            a_id != b_id or abs(a_cost - b_cost) > COST_TOLERANCE
            for (a_id, a_cost), (b_id, b_cost) in zip(expect, got)
        ):
            raise Failure(f"{what}: expected {expect[:5]}, got {got[:5]}")


def pct(values: List[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation), in the same unit."""
    return float(np.percentile(np.asarray(values), q))


def cpu_loop_s() -> float:
    """A short fixed pure-Python loop: a machine-speed witness only."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    return time.perf_counter() - start


def vm_hwm_mb(pid: str = "self") -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def reset_hwm() -> None:
    """Reset this process's VmHWM to its current RSS (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


def provenance(seed: int) -> Dict[str, object]:
    model = ""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "env": {
            name: os.environ.get(name)
            for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONHASHSEED"
            )
        },
    }


def build(workload: Workload):
    """Session + engine from the workload's inputs; returns (s, e, secs).

    Starts from a full collection, so that garbage-collector debt left by
    earlier ops and checks is not charged to the build: without it, the
    samples taken at some cycles ran 40% slower than the others.
    """
    gc.collect()
    start = time.perf_counter()
    session = MarketSession.from_points(
        workload.competitors, workload.products
    )
    engine = workload.make_engine(session)
    return session, engine, time.perf_counter() - start


def engine_stats(engine) -> Dict[str, object]:
    m = engine.metrics()
    planner = m.get("planner") or {}
    guard = (m.get("reliability") or {}).get("kernel_guard") or {}
    index = (m.get("reliability") or {}).get("index_guard") or {}
    hedge = ((m.get("shard_health") or {}).get("hedge")) or {}
    return {
        "plans": dict(planner.get("plans_chosen", {})),
        "replans": planner.get("replans", 0),
        "guard_checks": guard.get("checks", 0),
        "index_checks": index.get("checks", 0),
        "retries": m.get("retries", 0),
        "skyline_cache": dict(m["skyline_cache"]),
        "topk_cache": dict(m["topk_cache"]),
        "rpc_timeouts": (m.get("shard_health") or {}).get("rpc_timeouts", 0),
        "hedge": hedge,
    }


def delta(after: Dict, before: Dict) -> Dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = delta(value, before.get(key, {}))
        elif isinstance(value, (int, float)) and isinstance(
            before.get(key, 0), (int, float)
        ):
            out[key] = value - before.get(key, 0)
        else:
            out[key] = value
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def shm_segments(prefix: str) -> List[str]:
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except OSError:
        return []


def timed_phase(workload: Workload, seconds: float, log=None):
    """Build, run one phase, collect stats, close; returns the phase."""
    reset_hwm()  # input generation is not the program's
    session, engine, setup_s = build(workload)
    phase = Phase(workload, engine, session, log)
    phase.setups.append(setup_s)
    try:
        before = engine_stats(engine)
        phase.run(workload.cycles(seconds), MAX_STRETCH * seconds)
        phase.stats = delta(engine_stats(engine), before)
        phase.rss_mb = phase.peak_mb + sum(
            vm_hwm_mb(str(child.pid))
            for child in multiprocessing.active_children()
        )
    finally:
        engine.close()
    return phase


#: End-to-end metrics gated by BENCHMARK.json.  Every workload reports
#: all of them, so each is one that every workload's op kinds support.
GATED = ("setup_s", "ops_per_s", "product_mean_ms", "peak_rss_mb")


def end_to_end(phase: Phase) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(gated, printed)`` end-to-end metrics of one untraced phase."""
    values = {
        "setup_s": statistics.median(phase.setups),
        "ops_per_s": phase.attempted / phase.timed_s,
        "peak_rss_mb": phase.rss_mb,
        "fail_ratio": phase.failed / max(phase.attempted, 1),
    }
    for kind, seconds in phase.lat.items():
        if not seconds:
            continue
        ms = [v * 1000.0 for v in seconds]
        values[f"{kind}_mean_ms"] = statistics.fmean(ms)
        for q in (50, 90, 95, 99):
            values[f"{kind}_p{q}_ms"] = pct(ms, q)
    gated = {name: values.pop(name) for name in GATED}
    return gated, values


UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
    "fail_ratio": "ratio", "shard.coverage.min": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or name.endswith(".ms") or ".ms." in name or (
        "_ms." in name
    ):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# -- per-layer metrics -----------------------------------------------------------


#: Entry points that must record calls on each workload; the traced run
#: fails otherwise, so a renamed or re-imported entry point cannot
#: silently drop out of the breakdown.  ``upgrade`` is checked in every
#: module the workload reaches it through.
_CHURN_WRITES = (
    "repro.core.session:MarketSession.add_competitor",
    "repro.core.session:MarketSession.remove_competitor",
    "repro.rtree.tree:RTree.insert",
    "repro.rtree.tree:RTree.delete",
    "repro.rtree.split:SPLIT_FUNCTIONS['quadratic']",
    "repro.serve.cache:SkylineCache.invalidate_point",
)
EXPECTED = {
    "topk-churn": _CHURN_WRITES + (
        "repro.core.session:intersects_dominance_region",
        "repro.plan.planner:Planner.plan",
        "repro.core.join:JoinUpgrader.results",
        "repro.core.join:upgrade",
        "repro.serve.engine:upgrade",
        "repro.core.session:get_dominating_skyline",
        "repro.core.dominators:_traverse",
        "repro.core.join:dominating_mask",
        "repro.core.bounds:pair_bounds_block",
        "repro.core.upgrade:upgrade_kernel",
        "repro.costs.model:CostModel.product_cost",
        "repro.serve.cache:SkylineCache.get",
        "repro.serve.cache:TopKCache.get",
        "repro.serve.engine:UpgradeEngine._guarded_product_result",
    ),
    "lookup-mix": _CHURN_WRITES + (
        "repro.core.session:intersects_dominance_region",
        "repro.serve.engine:UpgradeEngine._serve_product",
        "repro.serve.engine:upgrade",
        "repro.core.session:get_dominating_skyline",
        "repro.core.dominators:_traverse",
        "repro.costs.model:CostModel.product_cost",
        "repro.serve.cache:SkylineCache.get",
        "repro.serve.cache:SkylineCache.put",
        "repro.serve.engine:UpgradeEngine._guarded_product_result",
        "repro.core.session:MarketSession.validate_indexes",
    ),
    "sharded-churn": _CHURN_WRITES + (
        "repro.shard.engine:upgrade",
        "repro.shard.engine:merge_skylines",
        "repro.shard.engine:scatter",
        "repro.shard.client:ShardProcess.submit",
        "repro.shard.merge:ThresholdMerge.observe",
        "repro.shard.merge:ThresholdMerge.drain",
        "repro.shard.memory:SharedBlock.publish",
        "repro.serve.cache:TopKCache.get",
    ),
}

LAYER_MS = (
    "serve.engine", "serve.cache", "plan", "core.session", "core.join",
    "core.probing", "core.upgrade", "core.dominators", "skyline.bbs",
    "kernels", "costs", "rtree.insert", "rtree.delete", "rtree.split",
    "rtree.query", "reliability.guard", "reliability.validate_indexes",
    "shard.submit", "shard.rpc_wait", "shard.merge", "shard.publish",
)


def layer_label(label: str) -> str:
    return label.replace("[", "_").replace("]", "").replace("-", "_")


def per_layer(
    workload: Workload, phase: Phase, log: layers.SpanLog,
    untraced_ops_per_s: float,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]], List[str]]:
    kinds = phase.kinds
    n_ops = len(kinds)
    by_kind, by_op = layers.self_times(
        log, lambda op: kinds[op] if 0 <= op < n_ops else "none"
    )
    calls = log.layer_calls()
    hook_calls = log.hook_calls()
    missing = [
        hook for hook in EXPECTED[workload.name] if not hook_calls[hook]
    ]
    self_ms: Dict[str, float] = {}
    breakdown: Dict[str, Dict[str, float]] = {}
    for (name, kind), seconds in by_kind.items():
        self_ms[name] = self_ms.get(name, 0.0) + seconds * 1000.0
        breakdown.setdefault(kind, {})[name] = seconds * 1000.0
    count_by_kind = {k: kinds.count(k) for k in set(kinds)}
    for kind, row in breakdown.items():
        n = count_by_kind.get(kind, 0)
        breakdown[kind] = {
            name: ms / n for name, ms in sorted(row.items())
        } if n else row

    n_topk = count_by_kind.get("topk", 0)
    n_product = count_by_kind.get("product", 0)
    topk_c = phase.counters.get("topk", {})
    prod_c = phase.counters.get("product", {})
    stats = phase.stats
    sky, tk = stats["skyline_cache"], stats["topk_cache"]
    hedge = stats.get("hedge") or {}
    write_wait = [
        lat - by_op.get(op, {}).get("core.session", 0.0)
        for op, lat in zip(phase.write_ops, phase.lat["write"])
    ]
    guard_s = sum(
        row.get("reliability.guard", 0.0) for row in by_op.values()
    )
    m: Dict[str, float] = {
        "serve.queue_wait_ms.p50": pct(phase.queue_wait, 50) * 1000.0,
        "serve.queue_wait_ms.p99": pct(phase.queue_wait, 99) * 1000.0,
        "serve.write_wait_ms.p90": pct(write_wait, 90) * 1000.0,
        "serve.skyline_cache.hit_ratio": ratio(
            sky.get("hits", 0), sky.get("hits", 0) + sky.get("misses", 0)
        ),
        "serve.skyline_cache.evictions": sky.get("evictions", 0),
        "serve.skyline_cache.invalidated": sky.get("invalidations", 0),
        "serve.topk_cache.hit_ratio": ratio(
            tk.get("hits", 0), tk.get("hits", 0) + tk.get("misses", 0)
        ),
        "plan.calls": calls.get("plan", 0),
        "plan.replans": stats.get("replans", 0),
        "core.lbc_evaluations.per_topk": ratio(
            topk_c.get("lbc_evaluations", 0), n_topk
        ),
        "core.entries_pruned.per_topk": ratio(
            topk_c.get("entries_pruned", 0), n_topk
        ),
        "core.heap_pops.per_topk": ratio(topk_c.get("heap_pops", 0), n_topk),
        "core.upgrade.calls": calls.get("core.upgrade", 0),
        "core.upgrade_calls_per_topk_ratio": ratio(
            topk_c.get("upgrade_calls", 0),
            n_topk * len(workload.products),
        ),
        "core.dominators.calls": calls.get("core.dominators", 0),
        "core.skyline_points.per_product": ratio(
            prod_c.get("skyline_points", 0), n_product
        ),
        "kernels.calls": calls.get("kernels", 0),
        "core.dominance_tests.per_topk": ratio(
            topk_c.get("dominance_tests", 0), n_topk
        ),
        "core.dominance_tests.per_product": ratio(
            prod_c.get("dominance_tests", 0), n_product
        ),
        "costs.calls": calls.get("costs", 0),
        "rtree.split.calls": calls.get("rtree.split", 0),
        "rtree.node_accesses.per_product": ratio(
            prod_c.get("node_accesses", 0), n_product
        ),
        "reliability.kernel_guard.checks": stats.get("guard_checks", 0),
        "reliability.guarded_topk_ms.mean": (
            statistics.mean(phase.guarded_topk) * 1000.0
            if phase.guarded_topk else 0.0
        ),
        "reliability.guard_time_ratio": ratio(guard_s, phase.timed_s),
        "reliability.index_checks": stats.get("index_checks", 0),
        "reliability.retries": stats.get("retries", 0),
        "shard.rpc.calls": calls.get("shard.submit", 0),
        "shard.hedges": hedge.get("hedges", 0),
        "shard.hedge_win_ratio": ratio(
            hedge.get("wins", 0), hedge.get("hedges", 0)
        ),
        "shard.rpc_timeouts": stats.get("rpc_timeouts", 0),
        "shard.coverage.min": phase.coverage_min,
        "obs.wrapper_overhead_ratio": ratio(
            phase.attempted / phase.timed_s, untraced_ops_per_s
        ),
    }
    for name in LAYER_MS:
        m[f"{name}.ms"] = ratio(self_ms.get(name, 0.0), n_ops)
    plans = stats.get("plans", {})
    for label in PLAN_LABELS:
        m[f"plan.chosen.{layer_label(label)}"] = plans.get(label, 0)
    return m, breakdown, missing


# -- entry point -----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    record: Dict[str, object] = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "cpu_loop_before_s": cpu_loop_s(),
    }
    workload = WORKLOADS[args.workload](args.seed)
    shm_prefix = f"skyup{os.getpid()}x"

    if args.trace:
        # Half the budget untraced, half traced, from identical state:
        # their throughput ratio is the wrappers' overhead.
        half = args.seconds / 2.0
        plain = timed_phase(workload, half)
        plain_ops_per_s = plain.attempted / plain.timed_s
        log = layers.SpanLog()
        log.install()
        try:
            phase = timed_phase(workload, half, log)
        finally:
            log.uninstall()
        metrics, breakdown, missing = per_layer(
            workload, phase, log, plain_ops_per_s
        )
        spans_path = os.path.join(
            args.out, f"{args.workload}-seed{args.seed}-spans.csv.gz"
        )
        record["spans"] = {"path": spans_path, "count": log.write(spans_path)}
        record["self_ms_per_op"] = breakdown
        record["ops"] = {k: phase.kinds.count(k) for k in set(phase.kinds)}
        record["hook_calls"] = dict(sorted(log.hook_calls().items()))
        if missing:
            phase.check_errors.append(
                f"traced entry points recorded no calls: {missing}"
            )
        attempted = plain.attempted + phase.attempted
        failed = plain.failed + phase.failed + len(missing)
        phases = (plain, phase)
        extra = {}
    else:
        phase = timed_phase(workload, args.seconds)
        metrics, extra = end_to_end(phase)
        record["setup_s_all"] = phase.setups
        record["samples"] = {k: len(v) for k, v in phase.lat.items()}
        record["latency_ms"] = {
            k: [round(v * 1000.0, 4) for v in vs]
            for k, vs in phase.lat.items()
        }
        attempted, failed = phase.attempted, phase.failed
        phases = (phase,)

    errors = [e for p in phases for e in p.check_errors]
    record["checked_answers"] = sum(p.checked for p in phases)
    record["cycles"] = [
        {"planned": p.cycles_planned, "run": p.cycles_run}
        for p in phases
    ]
    record["plans"] = [p.stats.get("plans", {}) for p in phases]
    record["kernel_guard_checks"] = [
        p.stats.get("guard_checks", 0) for p in phases
    ]

    leftovers = [str(c) for c in multiprocessing.active_children()]
    leftovers += shm_segments(shm_prefix)
    if leftovers:
        errors.append(f"left behind after close: {leftovers}")
        failed += 1
    record["cpu_loop_after_s"] = cpu_loop_s()
    record["errors"] = errors
    record["extra"] = extra
    record["metrics"] = metrics

    path = os.path.join(
        args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as out:
        json.dump(record, out, indent=1, sort_keys=True, default=float)

    for name, value in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    if args.trace:
        for kind, row in sorted(breakdown.items()):
            if kind == "none":  # set-up and oracle work between ops
                continue
            for name, ms in row.items():
                print(f"self_ms_per_{kind}.{name} = {ms:.6g} ms")
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
