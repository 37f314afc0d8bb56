"""Degraded-mode shard resilience: deadlines, hedging, breakers.

Three layers of coverage:

* **Unit** — :class:`CircuitBreaker` state machine under a fake clock,
  :class:`HedgePolicy` calibration.
* **Deterministic chaos** — seeded transport faults
  (``shard.transport.drop`` / ``.dup`` / ``.delay``) injected
  coordinator-side: duplicated commands must not change answers
  (idempotent workers), dropped commands must be recovered by hedging,
  sustained drops must trip the breakers into labeled zero-coverage
  answers and the supervisor's half-open probes must re-admit the
  workers afterwards.
* **Acceptance** — a worker SIGKILLed mid-workload under transport
  delays: no response may be an unlabeled lie.  Full-coverage answers
  (partial or not) must be exact prefixes of the single-process
  oracle's canonical order; reduced-coverage answers must be
  per-product lower bounds on the true costs; the tail stays bounded
  by the propagated deadline (p95 within 2x the healthy baseline or
  the deadline budget).
"""

from __future__ import annotations

import random
import time

import pytest

from repro import (
    CostModel,
    EngineConfig,
    LinearCost,
    MarketSession,
    ProductQuery,
    TopKQuery,
    UpgradeEngine,
)
from repro.reliability.faults import FaultPlan, FaultSpec, inject_faults
from repro.reliability.guards import KernelGuard
from repro.serve.engine import QueryResponse
from repro.shard import ShardedUpgradeEngine
from repro.shard.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    HEDGE_FACTOR,
    HEDGE_MIN_SAMPLES,
    CircuitBreaker,
    HedgePolicy,
)

DIMS = 3
RECOVERY_TIMEOUT = 30


def make_session(seed, n_competitors=30, n_products=18):
    rng = random.Random(seed)
    session = MarketSession(
        DIMS, CostModel([LinearCost(10.0, 1.0) for _ in range(DIMS)])
    )
    for _ in range(n_competitors):
        session.add_competitor(
            tuple(round(rng.uniform(0.0, 10.0), 3) for _ in range(DIMS))
        )
    for _ in range(n_products):
        session.add_product(
            tuple(round(rng.uniform(0.0, 10.0), 3) for _ in range(DIMS))
        )
    return session


# ---------------------------------------------------------------------------
# CircuitBreaker


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, cooldown_s=1.0, now=clock)
        assert b.allow()
        for _ in range(2):
            b.record_failure()
        assert b.state == BREAKER_CLOSED and b.allow()
        b.record_failure()
        assert b.state == BREAKER_OPEN and not b.allow()
        assert b.trips == 1

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker(threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == BREAKER_CLOSED  # never two in a row

    def test_probe_only_after_cooldown(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown_s=1.0, now=clock)
        b.record_failure()
        assert b.state == BREAKER_OPEN
        assert not b.should_probe()  # cooldown not elapsed
        clock.t = 1.5
        assert b.should_probe()
        assert b.state == BREAKER_HALF_OPEN
        assert not b.should_probe()  # probe slot already claimed

    def test_failed_probe_doubles_cooldown(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown_s=1.0, now=clock)
        b.record_failure()
        clock.t = 1.5
        assert b.should_probe()
        b.record_failure()  # probe failed
        assert b.state == BREAKER_OPEN
        assert b.snapshot()["cooldown_s"] == 2.0
        clock.t = 3.0  # only 1.5s since re-open: not due yet
        assert not b.should_probe()
        clock.t = 3.6
        assert b.should_probe()
        b.record_success()  # probe answered: closed, cooldown reset
        assert b.state == BREAKER_CLOSED and b.allow()
        assert b.snapshot()["cooldown_s"] == 1.0

    def test_threshold_zero_disables(self):
        b = CircuitBreaker(threshold=0)
        for _ in range(50):
            b.record_failure()
        assert b.state == BREAKER_CLOSED and b.allow()
        assert b.trips == 0


class TestHedgePolicy:
    def test_fixed_delay_always_armed(self):
        policy = HedgePolicy(fixed_delay_s=0.02)
        assert policy.delay() == 0.02

    def test_adaptive_unarmed_until_calibrated(self):
        policy = HedgePolicy()
        for _ in range(HEDGE_MIN_SAMPLES - 1):
            policy.observe(0.01)
        assert policy.delay() is None
        policy.observe(0.01)
        delay = policy.delay()
        assert delay == pytest.approx(
            max(0.01, 0.01 * HEDGE_FACTOR)
        )

    def test_adaptive_tracks_p95(self):
        policy = HedgePolicy()
        for v in [0.001] * 90 + [0.1] * 10:
            policy.observe(v)
        assert policy.delay() == pytest.approx(0.1 * HEDGE_FACTOR)

    def test_counters(self):
        policy = HedgePolicy(fixed_delay_s=0.01)
        policy.record_hedge()
        policy.record_hedge()
        policy.record_win()
        snap = policy.snapshot()
        assert snap["hedges"] == 2 and snap["wins"] == 1


# ---------------------------------------------------------------------------
# transport faults against a live sharded engine


def sharded_engine(session, **overrides):
    base = dict(
        workers=0, method="join", processes=2, shards=2, cache=False
    )
    base.update(overrides)
    return ShardedUpgradeEngine(session, EngineConfig(**base))


@pytest.fixture
def oracle():
    engine = UpgradeEngine(
        make_session(seed=2012),
        EngineConfig(workers=0, method="join", cache=False),
    )
    yield engine
    engine.close()


def test_dup_faults_leave_answers_bit_identical(oracle):
    # Duplicated commands exercise the workers' idempotent handling:
    # skylines is a pure read, topk_next dedupes on its sequence number.
    plan = FaultPlan(
        seed=7,
        points={
            "shard.transport.dup": FaultSpec(rate=1.0, kind="corrupt")
        },
    )
    engine = sharded_engine(make_session(seed=2012))
    try:
        expected_topk = oracle.query(TopKQuery(k=8)).results
        expected_prod = oracle.query(ProductQuery(3)).results
        with inject_faults(plan):
            topk = engine.query(TopKQuery(k=8))
            prod = engine.query(ProductQuery(3))
        assert not topk.partial and topk.coverage == 1.0
        assert topk.results == expected_topk
        assert not prod.partial and prod.results == expected_prod
    finally:
        engine.close()


def test_hedging_recovers_dropped_commands(oracle):
    # The first submits are dropped (max_fires bounds the chaos); the
    # fixed-delay hedge re-issues them and the answer completes intact.
    plan = FaultPlan(
        seed=7,
        points={
            "shard.transport.drop": FaultSpec(
                rate=1.0, kind="corrupt", max_fires=2
            )
        },
    )
    engine = sharded_engine(
        make_session(seed=2012),
        hedge_delay_s=0.05,
        shard_rpc_timeout_s=30.0,
    )
    try:
        expected = oracle.query(TopKQuery(k=8)).results
        with inject_faults(plan):
            response = engine.query(TopKQuery(k=8))
        assert not response.partial and response.coverage == 1.0
        assert response.results == expected
        hedge = engine.metrics()["shard_health"]["hedge"]
        assert hedge["hedges"] >= 1
        assert hedge["wins"] >= 1
    finally:
        engine.close()


def test_sustained_drops_trip_breakers_then_recover(oracle):
    # Sustained transport loss: RPC-bound timeouts charge the breakers,
    # queries degrade to labeled zero-coverage answers instead of
    # stalling, and once the chaos lifts the supervisor's half-open
    # ping probes re-admit the workers without any query traffic.
    plan = FaultPlan(
        seed=7,
        points={
            "shard.transport.drop": FaultSpec(rate=1.0, kind="corrupt")
        },
    )
    engine = sharded_engine(
        make_session(seed=2012),
        breaker_threshold=2,
        breaker_cooldown_s=0.2,
        health_interval_s=0.05,
        shard_rpc_timeout_s=0.25,
    )
    try:
        expected = oracle.query(TopKQuery(k=6)).results
        with inject_faults(plan):
            for _ in range(3):
                response = engine.query(TopKQuery(k=6))
                assert response.partial
            # Both breakers tripped: the last answers came from no
            # shards at all, quickly, and said so.
            assert response.coverage == 0.0
            assert response.results == []
            health = engine.metrics()["shard_health"]
            assert health["breaker_trips"] >= 2
            assert health["breakers_open"] == 2
            assert health["rpc_timeouts"] >= 2
            # A breaker-open round is skipped outright, not timed out.
            t0 = time.monotonic()
            skipped = engine.query(TopKQuery(k=6))
            assert time.monotonic() - t0 < 0.2
            assert skipped.partial and skipped.coverage == 0.0
            assert engine.metrics()["shard_health"]["breaker_skips"] >= 2
        deadline = time.monotonic() + RECOVERY_TIMEOUT
        while time.monotonic() < deadline:
            if engine.metrics()["shard_health"]["breakers_open"] == 0:
                break
            time.sleep(0.05)
        health = engine.metrics()["shard_health"]
        assert health["breakers_open"] == 0, health
        recovered = engine.query(TopKQuery(k=6))
        assert not recovered.partial and recovered.coverage == 1.0
        assert recovered.results == expected
        for proc in health["per_process"]:
            assert proc["breaker"]["probes"] >= 1
            assert 0.0 <= proc["health"] <= 1.0
    finally:
        engine.close()


def test_execute_batch_surfaces_partial_and_coverage():
    # Satellite of the degraded-answer contract: raise_errors=False must
    # yield labeled QueryResponse objects under total shard loss, not
    # opaque exception objects.
    plan = FaultPlan(
        seed=7,
        points={
            "shard.transport.drop": FaultSpec(rate=1.0, kind="corrupt")
        },
    )
    engine = sharded_engine(
        make_session(seed=2012),
        breaker_threshold=2,
        shard_rpc_timeout_s=0.25,
    )
    try:
        with inject_faults(plan):
            out = engine.execute_batch(
                [TopKQuery(k=4), ProductQuery(1), ProductQuery(2)],
                raise_errors=False,
            )
        assert all(isinstance(r, QueryResponse) for r in out)
        for r in out:
            assert r.partial
            assert r.coverage == 0.0
            assert r.results == []
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# deadline propagation


def test_zero_deadline_yields_labeled_partial():
    engine = sharded_engine(make_session(seed=2012))
    try:
        response = engine.query(TopKQuery(k=5, deadline_s=0.0))
        assert response.partial
        assert 0.0 <= response.coverage <= 1.0
        prod = engine.query(ProductQuery(0, deadline_s=0.0))
        assert prod.partial and prod.results == []
    finally:
        engine.close()


def test_deadline_partials_are_prefixes_of_canonical_order(oracle):
    # Graduated budgets: every full-coverage answer — truncated or not —
    # must be an exact prefix of the oracle's canonical order, and a
    # reduced-coverage answer a per-product lower bound on true costs.
    k = 12
    full = oracle.query(TopKQuery(k=k)).results
    ref_cost = {
        r.record_id: r.cost
        for rid in range(18)
        for r in oracle.query(ProductQuery(rid)).results
    }
    engine = sharded_engine(make_session(seed=2012))
    try:
        for deadline in (0.0002, 0.001, 0.005, 0.05, None):
            response = engine.query(TopKQuery(k=k, deadline_s=deadline))
            if response.coverage == 1.0:
                assert (
                    response.results == full[: len(response.results)]
                ), f"not a prefix at deadline={deadline}"
                if not response.partial:
                    assert response.results == full
            else:
                assert response.partial
                for r in response.results:
                    assert r.cost <= ref_cost[r.record_id] + 1e-9
        untimed = engine.query(TopKQuery(k=k))
        assert not untimed.partial and untimed.results == full
    finally:
        engine.close()


def test_deadline_cut_skyline_scatter_keeps_the_prefix_exact(
    oracle, monkeypatch
):
    # Pinned reproducer: the top-k streams answer in time, but the
    # sightings' skyline scatter is stalled past the request's whole
    # budget, so its wait ends deadline-bounded with at most one shard
    # in the skylines and no shard marked down.  Costing from those
    # skylines used to emit under-priced products at coverage 1.0; the
    # merge must hold instead, leaving an exact (possibly empty) prefix.
    k = 12
    full = oracle.query(TopKQuery(k=k)).results
    engine = sharded_engine(
        make_session(seed=2012), kernel_guard=KernelGuard(sample_rate=0.0)
    )
    executor = engine._executor
    scatter_skylines = executor._scatter_skylines
    fired = []

    def stalled(points, trace, remaining):
        plan = FaultPlan(
            seed=1,
            points={
                "shard.transport.delay": FaultSpec(
                    rate=1.0, kind="latency", latency_s=remaining + 0.02
                )
            },
        )
        with inject_faults(plan) as injector:
            out = scatter_skylines(points, trace, remaining)
        fired.append(injector.fired("shard.transport.delay"))
        return out

    try:
        assert engine.query(TopKQuery(k=k)).results == full  # warm
        monkeypatch.setattr(executor, "_scatter_skylines", stalled)
        response = engine.query(TopKQuery(k=k, deadline_s=0.5))
        assert fired and fired[0] >= 1, "skyline scatter never stalled"
        assert response.partial
        assert response.coverage == 1.0
        assert response.results == full[: len(response.results)]
        monkeypatch.undo()
        assert engine.query(TopKQuery(k=k)).results == full
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# acceptance: SIGKILL mid-workload under transport delays


def test_worker_kill_mid_workload_acceptance(oracle):
    session = make_session(seed=2012)
    engine = sharded_engine(session, breaker_cooldown_s=0.2)
    k = 8
    full = oracle.query(TopKQuery(k=k)).results
    ref_cost = {
        r.record_id: r.cost
        for rid in range(18)
        for r in oracle.query(ProductQuery(rid)).results
    }

    def workload(n, deadline_s=None):
        rng = random.Random(n)
        queries = []
        for i in range(n):
            if i % 4 == 0:
                queries.append(TopKQuery(k=k, deadline_s=deadline_s))
            else:
                queries.append(
                    ProductQuery(rng.randrange(18), deadline_s=deadline_s)
                )
        return queries

    try:
        # Healthy baseline (also calibrates the adaptive hedge delay).
        healthy = engine.execute_batch(workload(40))
        lat = sorted(r.elapsed_s for r in healthy)
        p95_healthy = lat[int(0.95 * (len(lat) - 1))]
        assert all(not r.partial for r in healthy)

        # Chaos: kill one worker mid-workload, armed transport delays,
        # every request carrying a deadline derived from the healthy
        # tail so deadline propagation itself bounds the p95.
        budget = max(0.25, 1.8 * p95_healthy)
        plan = FaultPlan(
            seed=13,
            points={
                "shard.transport.delay": FaultSpec(
                    rate=0.1, kind="latency", latency_s=0.005
                )
            },
        )
        chaos = workload(60, deadline_s=budget)
        responses = []
        with inject_faults(plan):
            responses += engine.execute_batch(
                chaos[:10], raise_errors=False
            )
            engine._executor._handles[1].kill()
            for lo in range(10, len(chaos), 10):
                responses += engine.execute_batch(
                    chaos[lo:lo + 10], raise_errors=False
                )

        # 1. Every response is a labeled QueryResponse — complete, or
        #    partial with a meaningful coverage. No exceptions leak.
        assert all(isinstance(r, QueryResponse) for r in responses)
        for q, r in zip(chaos, responses):
            assert 0.0 <= r.coverage <= 1.0
            if not r.partial:
                assert r.coverage == 1.0
            if isinstance(q, TopKQuery):
                # 2. Full-coverage top-k answers are verified prefixes
                #    of the oracle's canonical order; reduced-coverage
                #    answers are lower bounds over the reduced market.
                if r.coverage == 1.0:
                    assert r.results == full[: len(r.results)]
                else:
                    for res in r.results:
                        assert (
                            res.cost <= ref_cost[res.record_id] + 1e-9
                        )
            elif r.results:
                if r.coverage == 1.0:
                    assert r.results[0].cost == pytest.approx(
                        ref_cost[q.product_id]
                    )
                else:
                    assert (
                        r.results[0].cost
                        <= ref_cost[q.product_id] + 1e-9
                    )

        # 3. The tail stayed bounded: p95 within 2x the healthy
        #    baseline or the deadline budget, whichever dominates.
        chaos_lat = sorted(r.elapsed_s for r in responses)
        p95_chaos = chaos_lat[int(0.95 * (len(chaos_lat) - 1))]
        assert p95_chaos <= 2.0 * max(p95_healthy, budget), (
            f"p95 {p95_chaos:.3f}s vs healthy {p95_healthy:.3f}s "
            f"(budget {budget:.3f}s)"
        )

        # 4. After the respawn the engine serves exact answers again.
        deadline = time.monotonic() + RECOVERY_TIMEOUT
        while time.monotonic() < deadline:
            if all(h.alive for h in engine._executor._handles):
                break
            time.sleep(0.1)
        final = engine.query(TopKQuery(k=k))
        assert not final.partial and final.results == full
        assert engine.metrics()["shard_health"]["per_process"]
    finally:
        engine.close()
