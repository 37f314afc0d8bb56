"""ShardedUpgradeEngine behavior: caches, deadlines, metrics, tracing.

Agreement is covered by ``test_shard_agreement``; this file pins the
engine-shaped behavior around the scatter-gather core — epoch-vector
bumps are *per shard*, caches hit and invalidate precisely, deadlines
degrade to partials, the optional thread pool fronts the sharded path,
traces carry worker-side span fragments, and lifecycle errors are typed.
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
    TopKQuery,
)
from repro.exceptions import ConfigurationError, EngineClosedError
from repro.shard import ShardedUpgradeEngine
from repro.shard.partition import shard_of

DIMS = 3
TIMEOUT = 120


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


@pytest.fixture(scope="module")
def engine():
    eng = ShardedUpgradeEngine(
        make_session(),
        EngineConfig(
            workers=0,
            method="join",
            processes=2,
            shards=4,
            trace_sample_rate=1.0,
        ),
    )
    yield eng
    eng.close()


# ---------------------------------------------------------------------------
# configuration


def test_topology_validation():
    with pytest.raises(ConfigurationError):
        EngineConfig(processes=4, shards=2)
    with pytest.raises(ConfigurationError):
        EngineConfig(processes=-1)
    with pytest.raises(ConfigurationError):
        EngineConfig(shards=-1)
    config = EngineConfig(processes=2)  # shards defaults to per-process
    eng = ShardedUpgradeEngine(make_session(n_competitors=8), config)
    try:
        assert eng._executor.n_shards == 2
        assert eng._executor.n_processes == 2
    finally:
        eng.close()


# ---------------------------------------------------------------------------
# epoch vector / caches


def test_epoch_vector_bumps_only_owning_shard(engine):
    before = engine.epoch_vector
    rid = engine.add_competitor((2.0, 2.0, 2.0))
    after = engine.epoch_vector
    owner = shard_of(rid, engine._executor.n_shards)
    for shard in range(engine._executor.n_shards):
        expected = before[shard] + (1 if shard == owner else 0)
        assert after[shard] == expected
    assert after[-1] == before[-1]  # product epoch untouched
    engine.remove_competitor(rid)
    final = engine.epoch_vector
    assert final[owner] == after[owner] + 1


def test_product_mutation_bumps_product_epoch(engine):
    before = engine.epoch_vector
    pid = engine.add_product((5.0, 5.0, 5.0))
    mid = engine.epoch_vector
    assert mid[:-1] == before[:-1]
    assert mid[-1] > before[-1]
    engine.remove_product(pid)
    assert engine.epoch_vector[-1] > mid[-1]


def test_topk_cache_hits_and_prefixes(engine):
    engine.topk_cache.invalidate()
    cold = engine.query(TopKQuery(k=6))
    assert not cold.cache_hit
    warm = engine.query(TopKQuery(k=6))
    assert warm.cache_hit
    assert warm.results == cold.results
    prefix = engine.query(TopKQuery(k=2))
    assert prefix.cache_hit
    assert prefix.results == cold.results[:2]


def test_mutation_invalidates_topk_cache(engine):
    engine.query(TopKQuery(k=3))
    # A dominating competitor lands in every product's region.
    rid = engine.add_competitor((0.01, 0.01, 0.01))
    response = engine.query(TopKQuery(k=3))
    assert not response.cache_hit
    assert response.epoch == engine.epoch_vector
    engine.remove_competitor(rid)


def test_product_query_cache_and_unknown_id(engine):
    pid = sorted(engine.session.products_by_id()[0])[0]
    engine.skyline_cache.clear()
    cold = engine.query(ProductQuery(product_id=pid))
    warm = engine.query(ProductQuery(product_id=pid))
    assert not cold.cache_hit and warm.cache_hit
    assert cold.results == warm.results
    with pytest.raises(ConfigurationError):
        engine.query(ProductQuery(product_id=999_999))


# ---------------------------------------------------------------------------
# deadlines


def test_expired_deadline_degrades_to_partial(engine):
    response = engine.query(TopKQuery(k=4, deadline_s=0.0))
    assert response.partial
    assert len(response.results) <= 4
    response = engine.query(ProductQuery(product_id=0, deadline_s=0.0))
    assert response.partial
    assert response.results == []


# ---------------------------------------------------------------------------
# metrics / tracing


def test_metrics_shape(engine):
    engine.query(TopKQuery(k=2))
    snap = engine.metrics()
    shards = snap["shards"]
    assert shards["n_shards"] == 4
    assert shards["n_processes"] == 2
    assert len(shards["epoch_vector"]) == 5
    per_proc = shards["per_process"]
    assert [p["proc"] for p in per_proc] == [0, 1]
    for entry in per_proc:
        assert entry["alive"] is True
        assert entry["crashes"] == 0
        assert entry["queue_depth"] >= 0
    assert snap["reliability"]["worker_crashes"] == 0
    assert "hit_rate" in snap["topk_cache"]


def test_traces_include_worker_fragments(engine):
    engine.topk_cache.invalidate()
    engine.query(TopKQuery(k=3))
    traces = engine.recent_traces()
    assert traces
    names = {span.name for span in traces[-1].spans}
    assert "engine.request" in names
    assert "engine.execute" in names
    assert "shard.topk_next" in names  # replayed from the workers
    shard_spans = [
        s for s in traces[-1].spans if s.name == "shard.topk_next"
    ]
    assert all("proc" in s.attrs for s in shard_spans)


def test_product_trace_has_skyline_fragments(engine):
    engine.skyline_cache.clear()
    pid = sorted(engine.session.products_by_id()[0])[1]
    engine.query(ProductQuery(product_id=pid))
    names = {span.name for span in engine.recent_traces()[-1].spans}
    assert "shard.skylines" in names


# ---------------------------------------------------------------------------
# the optional thread pool in front of the sharded path


def test_pooled_submission():
    eng = ShardedUpgradeEngine(
        make_session(seed=23, n_competitors=20),
        EngineConfig(workers=2, method="join", processes=2, shards=2),
    )
    try:
        pendings = eng.submit_batch(
            [TopKQuery(k=3), TopKQuery(k=5), TopKQuery(k=1)]
        )
        responses = [p.result(timeout=TIMEOUT) for p in pendings]
        assert [len(r.results) for r in responses] == [3, 5, 1]
        assert responses[1].results[:3] == responses[0].results
    finally:
        eng.close()


def test_workerless_engine_rejects_submit(engine):
    with pytest.raises(ConfigurationError):
        engine.submit(TopKQuery(k=1))


# ---------------------------------------------------------------------------
# lifecycle


def test_close_is_idempotent_and_final():
    eng = ShardedUpgradeEngine(
        make_session(seed=31, n_competitors=10, n_products=6),
        EngineConfig(workers=0, method="join", processes=1, shards=1),
    )
    assert eng.query(TopKQuery(k=1)).results
    eng.close()
    eng.close()
    with pytest.raises(EngineClosedError):
        eng.query(TopKQuery(k=1))


def test_context_manager():
    with ShardedUpgradeEngine(
        make_session(seed=37, n_competitors=10, n_products=6),
        EngineConfig(workers=0, method="join", processes=1, shards=1),
    ) as eng:
        assert len(eng.query(TopKQuery(k=2)).results) == 2
    with pytest.raises(EngineClosedError):
        eng.query(TopKQuery(k=1))


def test_invalid_query_types(engine):
    with pytest.raises(ConfigurationError):
        engine.query(TopKQuery(k=0))
    with pytest.raises(ConfigurationError):
        engine.query("not a query")
