"""One engine, two executors: the same config means the same behaviour.

Every test runs against the in-process executor (``processes=0``) and
the sharded one (``processes=2``): the lifecycle, the ``metrics()``
schema, retries of coordinator-side transient faults, and the index
guard are front-end behaviour and must not depend on the tier.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    CostModel,
    EngineConfig,
    LinearCost,
    MarketSession,
    ProductQuery,
    ShardedUpgradeEngine,
    TopKQuery,
    UpgradeEngine,
)
from repro.analysis.lockorder import LockOrderWitness, instrument_engine
from repro.exceptions import EngineClosedError
from repro.reliability.faults import FaultPlan, FaultSpec, inject_faults
from repro.reliability.guards import KernelGuard

DIMS = 3
TIERS = [0, 2]


def make_session(seed=17, n_competitors=30, n_products=18):
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


def test_sharded_name_is_the_engine_class():
    assert ShardedUpgradeEngine is UpgradeEngine


@pytest.mark.parametrize("processes", TIERS)
def test_closed_engine_rejects_queries(processes):
    # A closed engine no longer hears mutations, so anything it answered
    # would come from stale caches: it must refuse instead.
    engine = UpgradeEngine(
        make_session(), EngineConfig(workers=0, processes=processes)
    )
    engine.query(TopKQuery(k=3))
    engine.close()
    engine.add_competitor((0.01, 0.01, 0.01))
    with pytest.raises(EngineClosedError):
        engine.query(TopKQuery(k=3))
    with pytest.raises(EngineClosedError):
        engine.execute_batch([ProductQuery(0)])
    assert engine.close() == 0  # idempotent


def test_metrics_have_one_schema():
    snapshots = {}
    for processes in TIERS:
        with UpgradeEngine(
            make_session(), EngineConfig(workers=0, processes=processes)
        ) as engine:
            engine.query(TopKQuery(k=2))
            engine.query(ProductQuery(1))
            snapshots[processes] = engine.metrics()
    local, sharded = snapshots[0], snapshots[2]
    assert set(local) == set(sharded)
    assert set(local["reliability"]) == set(sharded["reliability"])
    # Tier-specific sections are None on the other tier.
    assert local["shards"] is None and local["shard_health"] is None
    assert local["reliability"]["worker_crashes"] is None
    assert local["reliability"]["worker_respawns"] is None
    assert local["planner"] is not None
    assert sharded["planner"] is None
    assert sharded["shards"]["n_processes"] == 2
    assert sharded["reliability"]["worker_crashes"] == 0
    for snap in (local, sharded):
        assert snap["reliability"]["kernel_guard"]["sample_rate"] == 0.05
        assert snap["reliability"]["index_guard"]["every"] == 64


@pytest.mark.parametrize("processes", TIERS)
def test_transient_coordinator_fault_is_retried_exactly(processes):
    # rtree.query fires in the coordinator on both tiers: in-process in
    # the dominator search, sharded in the guard's scalar recompute.
    expected = UpgradeEngine(
        make_session(), EngineConfig(workers=0, cache=False)
    ).query(ProductQuery(5)).results
    config = EngineConfig(
        workers=0,
        processes=processes,
        cache=False,
        kernel_guard=KernelGuard(sample_rate=1.0),
    )
    plan = FaultPlan(
        seed=3, points={"rtree.query": FaultSpec(rate=1.0, max_fires=1)}
    )
    with UpgradeEngine(make_session(), config) as engine:
        with inject_faults(plan) as injector:
            response = engine.query(ProductQuery(5))
        assert injector.fired("rtree.query") == 1
        assert engine.metrics()["retries"] > 0
        assert not response.partial and response.coverage == 1.0
        assert response.results == expected


@pytest.mark.parametrize("processes", TIERS)
def test_index_guard_checks_every_mutation(processes):
    config = EngineConfig(
        workers=0, processes=processes, index_check_every=1
    )
    with UpgradeEngine(make_session(), config) as engine:
        cid = engine.add_competitor((5.0, 5.0, 5.0))
        assert engine.remove_competitor(cid)
        pid = engine.add_product((6.0, 6.0, 6.0))
        assert engine.remove_product(pid)
        index = engine.metrics()["reliability"]["index_guard"]
        assert index["mutations"] == 4
        assert index["checks"] == 4
        assert index["failures"] == 0


def test_lock_witness_covers_the_shard_locks():
    witness = LockOrderWitness()
    with UpgradeEngine(
        make_session(), EngineConfig(workers=0, processes=2)
    ) as engine:
        instrument_engine(engine, witness)
        engine.query(TopKQuery(k=4))
        engine.query(ProductQuery(2))
        engine.add_competitor((0.5, 0.5, 0.5))
    edges = witness.edges()
    assert ("engine._rw", "ShardProcess._lock") in edges
    assert ("engine._rw", "CircuitBreaker._lock") in edges
    witness.check()
