"""Tests for the UpgradeEngine: correctness, batching, deadlines, metrics."""

import threading

import numpy as np
import pytest

from repro.core.dominators import get_dominating_skyline
from repro.core.session import MarketSession
from repro.core.upgrade import upgrade
from repro.exceptions import (
    ConfigurationError,
    EngineClosedError,
    EngineOverloadedError,
)
from repro.instrumentation import Counters
from repro.serve import (
    EngineConfig,
    ProductQuery,
    TopKQuery,
    UpgradeEngine,
)


def make_session(seed=11, n_p=200, n_t=50, dims=2):
    rng = np.random.default_rng(seed)
    return MarketSession.from_points(
        rng.random((n_p, dims)), 1.0 + rng.random((n_t, dims)),
        max_entries=8,
    )


@pytest.fixture()
def session():
    return make_session()


@pytest.fixture()
def engine(session):
    with UpgradeEngine(
        session, EngineConfig(workers=2, batch_max=16)
    ) as eng:
        yield eng


class TestCorrectness:
    def test_topk_matches_session(self, session, engine):
        response = engine.query(TopKQuery(k=7))
        assert not response.partial
        assert [r.cost for r in response.results] == pytest.approx(
            session.top_k(7).costs
        )

    def test_product_query_matches_direct_computation(self, session, engine):
        for pid in (0, 5, 17):
            point = session.product_point(pid)
            skyline = get_dominating_skyline(
                session.competitor_index, point
            )
            cost, upgraded = upgrade(
                skyline, point, session.cost_model, session.config
            )
            response = engine.query(ProductQuery(pid))
            (result,) = response.results
            assert result.record_id == pid
            assert result.cost == pytest.approx(cost)
            assert result.upgraded == upgraded

    def test_unknown_product_raises(self, engine):
        with pytest.raises(ConfigurationError):
            engine.query(ProductQuery(10_000))

    def test_empty_catalog(self):
        session = MarketSession.from_points(
            np.random.default_rng(0).random((20, 2)), []
        )
        with UpgradeEngine(session, EngineConfig(workers=0)) as engine:
            response = engine.query(TopKQuery(k=3))
            assert response.results == [] and not response.partial
            # Exhausted-empty prefixes are cacheable too.
            assert engine.query(TopKQuery(k=3)).cache_hit


class TestCaching:
    def test_repeat_topk_hits_cache(self, engine):
        first = engine.query(TopKQuery(k=5))
        second = engine.query(TopKQuery(k=5))
        assert not first.cache_hit and second.cache_hit
        assert [r.cost for r in second.results] == [
            r.cost for r in first.results
        ]

    def test_smaller_k_served_from_prefix(self, engine):
        engine.query(TopKQuery(k=8))
        response = engine.query(TopKQuery(k=3))
        assert response.cache_hit and len(response.results) == 3

    def test_repeat_product_query_hits_cache(self, engine):
        assert not engine.query(ProductQuery(4)).cache_hit
        assert engine.query(ProductQuery(4)).cache_hit

    def test_cache_disabled_never_hits(self, session):
        with UpgradeEngine(
            session, EngineConfig(workers=0, cache=False)
        ) as engine:
            engine.query(TopKQuery(k=3))
            assert not engine.query(TopKQuery(k=3)).cache_hit
            engine.query(ProductQuery(1))
            assert not engine.query(ProductQuery(1)).cache_hit

    def test_irrelevant_competitor_keeps_caches_warm(self, session, engine):
        engine.query(TopKQuery(k=4))
        engine.query(ProductQuery(2))
        # Far outside every product's ADR and dominance region.
        engine.add_competitor((5.0, 5.0))
        topk = engine.query(TopKQuery(k=4))
        prod = engine.query(ProductQuery(2))
        assert topk.cache_hit and prod.cache_hit
        assert [r.cost for r in topk.results] == pytest.approx(
            session.top_k(4).costs
        )

    def test_relevant_competitor_invalidates_and_stays_correct(
        self, session, engine
    ):
        stale_topk = engine.query(TopKQuery(k=4))
        engine.query(ProductQuery(2))
        cid = engine.add_competitor((0.01, 0.01))  # dominates everything
        topk = engine.query(TopKQuery(k=4))
        prod = engine.query(ProductQuery(2))
        assert not topk.cache_hit and not prod.cache_hit
        assert [r.cost for r in topk.results] == pytest.approx(
            session.top_k(4).costs
        )
        # And removal restores the old answers (fresh recomputation).
        engine.remove_competitor(cid)
        restored = engine.query(TopKQuery(k=4))
        assert not restored.cache_hit
        assert [r.cost for r in restored.results] == pytest.approx(
            [r.cost for r in stale_topk.results]
        )

    def test_product_mutation_drops_topk_but_not_skylines(self, engine):
        engine.query(TopKQuery(k=4))
        engine.query(ProductQuery(2))
        engine.add_product((1.9, 1.9))
        assert not engine.query(TopKQuery(k=4)).cache_hit
        assert engine.query(ProductQuery(2)).cache_hit


class TestBatching:
    def test_batch_matches_individual_answers(self, session, engine):
        responses = engine.execute_batch(
            [TopKQuery(k=2), TopKQuery(k=9), ProductQuery(0)]
        )
        oracle = session.top_k(9).costs
        assert [r.cost for r in responses[0].results] == pytest.approx(
            oracle[:2]
        )
        assert [r.cost for r in responses[1].results] == pytest.approx(
            oracle
        )
        assert responses[2].results[0].record_id == 0

    def test_batch_amortizes_traversal(self, session):
        ks = [3, 5, 9]
        with UpgradeEngine(
            session, EngineConfig(workers=0, cache=False)
        ) as separate:
            for k in ks:
                separate.query(TopKQuery(k=k))
            separate_accesses = separate.counters().node_accesses
        with UpgradeEngine(
            session, EngineConfig(workers=0, cache=False)
        ) as batched:
            batched.execute_batch([TopKQuery(k=k) for k in ks])
            batched_accesses = batched.counters().node_accesses
        assert batched_accesses < separate_accesses

    def test_pool_concurrent_submissions(self, engine):
        pendings = []
        errors = []

        def submitter(k):
            try:
                pendings.append(engine.submit(TopKQuery(k=k)))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(1 + i % 5,))
            for i in range(20)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for pending in pendings:
            response = pending.result(timeout=5.0)
            assert len(response.results) == pending.query.k

    def test_queue_capacity_backpressure(self, session):
        engine = UpgradeEngine(
            session, EngineConfig(workers=1, queue_capacity=1)
        )
        # Saturate: the first batch may be picked up instantly, so keep
        # offering until one is refused.
        with pytest.raises(EngineOverloadedError):
            for _ in range(10_000):
                engine.submit_batch([TopKQuery(k=1), TopKQuery(k=1)])
        engine.close()
        assert engine.metrics()["rejected"] >= 1

    def test_closed_engine_rejects(self, session):
        engine = UpgradeEngine(session, EngineConfig(workers=1))
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(TopKQuery(k=1))

    def test_workerless_engine_rejects_submit(self, session):
        with UpgradeEngine(session, EngineConfig(workers=0)) as engine:
            with pytest.raises(ConfigurationError):
                engine.submit(TopKQuery(k=1))


class TestDeadlines:
    def test_expired_deadline_returns_partial_prefix(self, engine):
        response = engine.query(TopKQuery(k=30, deadline_s=0.0))
        assert response.partial
        assert len(response.results) < 30

    def test_partial_prefix_is_exact_top_of_ranking(self, session, engine):
        response = engine.query(TopKQuery(k=10, deadline_s=0.0))
        # Whatever was emitted must be the true cheapest prefix.
        n = len(response.results)
        assert [r.cost for r in response.results] == pytest.approx(
            session.top_k(10).costs[:n]
        )

    def test_deadline_in_batch_only_affects_its_request(self, engine):
        fast, slow = engine.execute_batch(
            [TopKQuery(k=12), TopKQuery(k=12, deadline_s=0.0)]
        )
        assert not fast.partial and len(fast.results) == 12
        assert slow.partial

    def test_engine_default_deadline(self, session):
        with UpgradeEngine(
            session, EngineConfig(workers=0, default_deadline_s=0.0)
        ) as engine:
            assert engine.query(TopKQuery(k=5)).partial


class TestMetrics:
    def test_snapshot_shape(self, engine):
        engine.query(TopKQuery(k=2))
        engine.query(ProductQuery(0))
        snap = engine.metrics()
        assert snap["requests"] == 2
        assert snap["topk_queries"] == 1
        assert snap["product_queries"] == 1
        assert snap["counters"]["node_accesses"] > 0
        assert 0.0 <= snap["latency_s"]["p50"] <= snap["latency_s"]["max"]
        assert snap["skyline_cache"]["capacity"] == 4096
        assert snap["epoch"] == [0, 0]

    def test_partials_counted(self, engine):
        engine.query(TopKQuery(k=30, deadline_s=0.0))
        assert engine.metrics()["partials"] == 1

    def test_per_worker_counters_merge_to_serial_totals(self, session):
        """Sharded per-worker counters must sum to the serial run's."""
        pids = list(range(session.product_count))
        serial = Counters()
        for pid in pids:
            point = session.product_point(pid)
            skyline = session.dominator_skyline(point, serial)
            upgrade(
                skyline, point, session.cost_model, session.config, serial
            )
        with UpgradeEngine(
            session, EngineConfig(workers=3, cache=False)
        ) as engine:
            pendings = engine.submit_batch(
                [ProductQuery(pid) for pid in pids]
            )
            for pending in pendings:
                pending.result(timeout=10.0)
            merged = engine.counters()
        assert merged == serial
