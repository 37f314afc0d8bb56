"""Planner integration in the serving engine.

The engine's default method is now ``"auto"``: it profiles the catalog,
asks the planner for a physical plan, and caches it per epoch.  The
invariants pinned here: auto answers are bit-for-bit the legacy join
answers (plan choice changes work, never results), ``method="join"``
bypasses planning entirely, mutations drop the cached plan, observed
runtimes never change a plan or its work counters, and the
guarded/deadline paths survive a probing plan.
"""

import itertools

import numpy as np
import pytest

from repro.core.session import MarketSession
from repro.plan import Planner
from repro.reliability.guards import KernelGuard
from repro.serve import EngineConfig, TopKQuery, UpgradeEngine


def make_session(seed=11, n_p=200, n_t=50, dims=2):
    rng = np.random.default_rng(seed)
    return MarketSession.from_points(
        rng.random((n_p, dims)), 1.0 + rng.random((n_t, dims)),
        max_entries=8,
    )


def run_engine(config, k=7, seed=11):
    with UpgradeEngine(make_session(seed=seed), config) as engine:
        response = engine.query(TopKQuery(k=k))
        return response, engine.metrics()


class TestAutoEqualsJoin:
    @pytest.mark.parametrize("seed", [11, 40])
    def test_same_answers(self, seed):
        auto, _ = run_engine(
            EngineConfig(workers=0, method="auto"), seed=seed
        )
        join, _ = run_engine(
            EngineConfig(workers=0, method="join"), seed=seed
        )
        assert [r.record_id for r in auto.results] == [
            r.record_id for r in join.results
        ]
        assert [r.cost for r in auto.results] == pytest.approx(
            [r.cost for r in join.results]
        )

    def test_forced_probing_same_answers(self):
        probing, _ = run_engine(EngineConfig(workers=0, method="probing"))
        join, _ = run_engine(EngineConfig(workers=0, method="join"))
        assert [(r.record_id, pytest.approx(r.cost)) for r in
                probing.results] == [
            (r.record_id, pytest.approx(r.cost)) for r in join.results
        ]


class TestPlannerMetrics:
    def test_auto_reports_planner_section(self):
        _, metrics = run_engine(EngineConfig(workers=0, method="auto"))
        planner = metrics["planner"]
        assert planner is not None
        assert sum(planner["plans_chosen"].values()) >= 1

    def test_join_reports_no_planner(self):
        _, metrics = run_engine(EngineConfig(workers=0, method="join"))
        assert metrics["planner"] is None

    def test_probing_plan_is_forced(self):
        _, metrics = run_engine(EngineConfig(workers=0, method="probing"))
        chosen = metrics["planner"]["plans_chosen"]
        assert set(chosen) <= {"probing", "basic-probing"}


class TestPlanCache:
    def test_plan_survives_repeat_queries(self):
        session = make_session()
        with UpgradeEngine(
            session, EngineConfig(workers=0, method="auto", cache=False)
        ) as engine:
            engine.query(TopKQuery(k=3))
            engine.query(TopKQuery(k=5))
            planner = engine.metrics()["planner"]
            # One profiling pass serves both queries.
            assert sum(planner["plans_chosen"].values()) == 1

    def test_mutation_drops_cached_plan(self):
        session = make_session()
        with UpgradeEngine(
            session, EngineConfig(workers=0, method="auto", cache=False)
        ) as engine:
            engine.query(TopKQuery(k=3))
            engine.add_product([0.5, 0.5])
            engine.query(TopKQuery(k=3))
            planner = engine.metrics()["planner"]
            assert sum(planner["plans_chosen"].values()) == 2


class TestPlanIgnoresRuntimes:
    """Plans and work counters follow the catalog history, not the clock."""

    @staticmethod
    def replay():
        """(plan label, counter deltas) per top-k of a write+top-k stream."""
        rng = np.random.default_rng(2012)
        session = make_session(seed=23, n_p=600, n_t=120, dims=3)
        steps = []
        with UpgradeEngine(
            session, EngineConfig(workers=0, method="auto")
        ) as engine:
            for _ in range(8):
                engine.add_competitor(rng.random(3))
                chosen = dict(engine.metrics()["planner"]["plans_chosen"])
                before = engine.counters().as_dict()
                engine.query(TopKQuery(k=3))
                after = engine.counters().as_dict()
                now = engine.metrics()["planner"]["plans_chosen"]
                (label,) = [
                    name for name, count in now.items()
                    if count != chosen.get(name, 0)
                ]
                work = {name: after[name] - before[name] for name in after}
                steps.append((label, work))
        return steps

    def test_skewed_runtimes_change_no_plan_or_counter(self, monkeypatch):
        reference = self.replay()
        observe = Planner.observe
        skew = itertools.cycle((50.0, 0.01))

        def skewed(planner, planned, elapsed_s, *args, **kwargs):
            observe(planner, planned, elapsed_s * next(skew), *args, **kwargs)

        monkeypatch.setattr(Planner, "observe", skewed)
        assert self.replay() == reference


class TestHardPaths:
    def test_expired_deadline_under_probing_yields_partial(self):
        with UpgradeEngine(
            make_session(),
            EngineConfig(workers=0, method="probing", cache=False),
        ) as engine:
            response = engine.query(TopKQuery(k=4, deadline_s=0.0))
            assert response.partial
            assert response.results == []

    def test_guarded_path_under_auto(self):
        config = EngineConfig(
            workers=0, method="auto",
            kernel_guard=KernelGuard(sample_rate=1.0),
        )
        session = make_session()
        with UpgradeEngine(session, config) as engine:
            response = engine.query(TopKQuery(k=5))
            assert [r.cost for r in response.results] == pytest.approx(
                session.top_k(5).costs
            )
            guard = engine.metrics()["reliability"]["kernel_guard"]
            assert guard["checks"] >= 1 and guard["divergences"] == 0

    def test_guarded_path_under_forced_probing(self):
        config = EngineConfig(
            workers=0, method="probing",
            kernel_guard=KernelGuard(sample_rate=1.0),
        )
        session = make_session()
        with UpgradeEngine(session, config) as engine:
            response = engine.query(TopKQuery(k=5))
            assert [r.cost for r in response.results] == pytest.approx(
                session.top_k(5).costs
            )
