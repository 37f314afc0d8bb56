"""Randomized cache-invalidation correctness.

The serving engine's whole value rests on one invariant: a cached answer is
indistinguishable from a cold recomputation.  These tests interleave
competitor inserts/deletes, product churn, and upgrade commits with top-k
and per-product queries at random, and after *every* query assert equality
against the live session's uncached ``MarketSession.top_k`` (the session
recomputes from its indexes on each call — the engine's caches never sit
in that path).
"""

import numpy as np
import pytest

from repro.core.dominators import get_dominating_skyline
from repro.core.session import MarketSession
from repro.core.upgrade import upgrade
from repro.serve import (
    EngineConfig,
    ProductQuery,
    TopKQuery,
    UpgradeEngine,
)


def run_interleaving(seed, steps=120, n_p=60, n_t=22, dims=2):
    rng = np.random.default_rng(seed)
    session = MarketSession.from_points(
        rng.random((n_p, dims)), 1.0 + rng.random((n_t, dims)),
        max_entries=8,
    )
    engine = UpgradeEngine(session, EngineConfig(workers=0))
    live_competitors = list(range(n_p))
    live_products = list(range(n_t))
    checks = hits = 0
    try:
        for _ in range(steps):
            op = rng.random()
            if op < 0.15:
                # Insert a competitor: sometimes deep inside product ADRs,
                # sometimes far outside every region (cache survives).
                if rng.random() < 0.5:
                    point = tuple(rng.uniform(0.0, 1.8, dims))
                else:
                    point = tuple(rng.uniform(3.0, 4.0, dims))
                live_competitors.append(engine.add_competitor(point))
            elif op < 0.25 and live_competitors:
                victim = live_competitors.pop(
                    int(rng.integers(len(live_competitors)))
                )
                assert engine.remove_competitor(victim)
            elif op < 0.30:
                pid = engine.add_product(tuple(1.0 + rng.random(dims)))
                live_products.append(pid)
            elif op < 0.35 and len(live_products) > 3:
                victim = live_products.pop(
                    int(rng.integers(len(live_products)))
                )
                assert engine.remove_product(victim)
            elif op < 0.40 and live_products:
                # Commit a real upgrade for a random product.
                pid = live_products[int(rng.integers(len(live_products)))]
                point = session.product_point(pid)
                skyline = get_dominating_skyline(
                    session.competitor_index, point
                )
                cost, upgraded = upgrade(
                    skyline, point, session.cost_model, session.config
                )
                if cost > 0:
                    from repro.core.types import UpgradeResult

                    engine.commit_upgrade(
                        UpgradeResult(pid, point, upgraded, cost)
                    )
            elif op < 0.80:
                k = int(rng.integers(1, 9))
                response = engine.query(TopKQuery(k=k))
                cold = session.top_k(k)
                assert [r.cost for r in response.results] == pytest.approx(
                    cold.costs
                ), f"top-{k} diverged from cold recomputation"
                assert [r.record_id for r in response.results] == [
                    r.record_id for r in cold.results
                ]
                checks += 1
                hits += response.cache_hit
            elif live_products:
                pid = live_products[int(rng.integers(len(live_products)))]
                response = engine.query(ProductQuery(pid))
                point = session.product_point(pid)
                cold_cost, cold_upgraded = upgrade(
                    get_dominating_skyline(session.competitor_index, point),
                    point,
                    session.cost_model,
                    session.config,
                )
                (result,) = response.results
                assert result.cost == pytest.approx(cold_cost)
                assert result.upgraded == pytest.approx(cold_upgraded)
                checks += 1
                hits += response.cache_hit
    finally:
        engine.close()
    return checks, hits


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cached_answers_equal_cold_recomputation(seed):
    checks, _ = run_interleaving(seed)
    assert checks > 20  # the interleaving actually exercised queries


def test_cache_provides_hits_under_churn():
    """The precise invalidation must leave some entries alive — a cache
    that never hits under churn would be wholesale invalidation in
    disguise."""
    total_checks = total_hits = 0
    for seed in range(4):
        checks, hits = run_interleaving(seed)
        total_checks += checks
        total_hits += hits
    assert total_hits > 0
    assert total_hits < total_checks  # and invalidation does fire
