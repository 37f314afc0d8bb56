"""The session's maintained competitor skyline.

On the kernel path, ``MarketSession.dominator_skyline`` answers from
``sky(P)`` kept current across competitor writes
(:mod:`repro.skyline.maintained`).  After every mutation the maintained
skyline must equal a fresh BBS over the live index — as lists, order
included — and the kernel-path answers must equal Algorithm 3's
traversal, which stays the oracle.
"""

import random
import sys
import threading
import time

import pytest

from repro.core.dominators import get_dominating_skyline
from repro.core.session import MarketSession
from repro.core.upgrade import upgrade
from repro.instrumentation import Counters
from repro.kernels.switch import set_kernels_enabled, use_kernels
from repro.reliability import FaultPlan, FaultSpec, KernelGuard, inject_faults
from repro.serve import EngineConfig, ProductQuery, UpgradeEngine
from repro.skyline.bbs import bbs_skyline
from repro.skyline.maintained import SkylineSnapshot


def quarter_grid(rng, dims):
    """A point on the quarter grid of [0, 2]: ties and twins are common."""
    return tuple(rng.randint(0, 8) / 4 for _ in range(dims))


def maintained(session):
    snapshot = session._skyline
    assert snapshot is not None, "the maintained skyline was dropped"
    return list(snapshot.points)


def assert_current(session):
    __tracebackhide__ = True
    assert maintained(session) == bbs_skyline(session.competitor_index)


def assert_paths_agree(session, probes):
    __tracebackhide__ = True
    for t in probes:
        on = session.dominator_skyline(t)
        with use_kernels(False):
            off = session.dominator_skyline(t)
        assert on == off, t


def built_session(competitors, products=((2.0, 2.0),), dims=2):
    session = MarketSession.from_points(
        competitors, list(products), max_entries=4
    )
    session.dominator_skyline((9.0,) * dims)  # builds sky(P)
    return session


class TestRandomStreams:
    @pytest.mark.parametrize("dims", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_every_mutation_keeps_the_bbs_skyline(self, dims, seed):
        rng = random.Random(1000 * dims + seed)
        competitors = [quarter_grid(rng, dims) for _ in range(40)]
        session = built_session(
            competitors, [quarter_grid(rng, dims)], dims=dims
        )
        live = list(range(len(competitors)))
        for _ in range(150):
            if live and rng.random() < 0.5:
                victim = live.pop(rng.randrange(len(live)))
                assert session.remove_competitor(victim)
            else:
                live.append(session.add_competitor(quarter_grid(rng, dims)))
            assert_current(session)
            probes = [quarter_grid(rng, dims) for _ in range(3)]
            if live:
                # A probe equal to a competitor: ties must not count.
                probes.append(
                    session.competitors_by_id()[1][rng.randrange(len(live))]
                )
            assert_paths_agree(session, probes)


class TestMaintenanceCases:
    def test_removing_one_of_two_equal_skyline_points(self):
        session = built_session([(0.5, 0.5), (0.5, 0.5), (1.0, 1.0)])
        assert maintained(session) == [(0.5, 0.5)]
        assert session.remove_competitor(0)
        assert maintained(session) == [(0.5, 0.5)]  # the twin re-enters
        assert session.remove_competitor(1)
        assert maintained(session) == [(1.0, 1.0)]
        assert_current(session)

    def test_removal_regrows_several_points(self):
        # (0, 0) dominates the rest; (3, 3) stays dominated after it goes.
        competitors = [
            (0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (3.0, 3.0),
            (0.0, 4.0),
        ]
        session = built_session(competitors)
        assert maintained(session) == [(0.0, 0.0)]
        assert session.remove_competitor(0)
        assert maintained(session) == [
            (1.0, 2.0), (1.5, 1.5), (2.0, 1.0), (0.0, 4.0)
        ]
        assert_current(session)
        assert_paths_agree(session, [(2.0, 2.0), (3.0, 3.0), (0.5, 5.0)])

    def test_removing_a_dominated_point_changes_nothing(self):
        session = built_session([(0.5, 0.5), (1.0, 1.0)])
        before = session._skyline
        assert session.remove_competitor(1)
        assert session._skyline is before

    def test_drain_then_add_again(self):
        rng = random.Random(5)
        competitors = [quarter_grid(rng, 3) for _ in range(30)]
        session = built_session(competitors, [(2.0, 2.0, 2.0)], dims=3)
        for cid in range(len(competitors)):
            assert session.remove_competitor(cid)
            assert_current(session)
        assert maintained(session) == []
        assert session.dominator_skyline((2.0, 2.0, 2.0)) == []
        for _ in range(10):
            session.add_competitor(quarter_grid(rng, 3))
            assert_current(session)
        assert_paths_agree(session, [(2.0, 2.0, 2.0), (1.0, 1.0, 1.0)])

    def test_adding_a_point_equal_to_a_skyline_point(self):
        session = built_session([(0.5, 1.0), (1.0, 0.5)])
        before = session._skyline
        session.add_competitor((0.5, 1.0))
        assert session._skyline is before
        assert maintained(session) == [(0.5, 1.0), (1.0, 0.5)]

    def test_add_evicts_dominated_points_in_canonical_order(self):
        session = built_session([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
        session.add_competitor((0.5, 0.5))
        assert maintained(session) == [(0.5, 0.5), (0.0, 2.0), (2.0, 0.0)]
        assert_current(session)


class TestQueries:
    def test_probes_with_ties_twins_and_no_dominators(self):
        rng = random.Random(11)
        competitors = [quarter_grid(rng, 3) for _ in range(60)]
        session = built_session(competitors, [(2.0, 2.0, 2.0)], dims=3)
        probes = [tuple(p) for p in competitors[:10]]  # equal a competitor
        probes += [(0.0, 0.0, 0.0), (-1.0, 5.0, 5.0)]  # no dominators
        probes += [quarter_grid(rng, 3) for _ in range(20)]
        assert session.dominator_skyline((0.0, 0.0, 0.0)) == []
        assert_paths_agree(session, probes)

    def test_dominator_whose_sum_ties_the_product(self):
        # 2**53 + 1 rounds to 2**53: the dominator's sum equals t's.
        big = float(2**53)
        session = built_session([(big, 0.0), (0.0, big + 4.0)])
        t = (big, 1.0)
        assert sum(t) == sum((big, 0.0))
        assert session.dominator_skyline(t) == [(big, 0.0)]
        assert_paths_agree(session, [t])

    def test_setup_does_no_skyline_work(self):
        session = MarketSession.from_points(
            [(0.5, 0.5), (1.0, 0.2)], [(2.0, 2.0)]
        )
        assert session._skyline is None
        with use_kernels(False):
            session.dominator_skyline((2.0, 2.0))
        assert session._skyline is None  # the scalar path never builds

    def test_scalar_remove_drops_and_kernel_query_rebuilds(self):
        session = built_session([(0.5, 0.5), (1.0, 0.2), (0.2, 1.0)])
        with use_kernels(False):
            assert session.remove_competitor(0)
        assert session._skyline is None
        assert session.dominator_skyline((2.0, 2.0)) == [
            (0.2, 1.0), (1.0, 0.2)
        ]
        assert_current(session)

    def test_counters_charge_the_tested_prefix(self):
        session = built_session([(0.0, 3.0), (1.0, 1.0), (3.0, 0.0)])
        stats = Counters()
        # Sums 2.0 and 3.0 fit under sum(t) = 3.0; (1.0, 1.0) dominates.
        assert session.dominator_skyline((1.5, 1.5), stats) == [(1.0, 1.0)]
        assert stats.dominance_tests == 3
        assert stats.skyline_points == 1
        assert stats.node_accesses == 0


def chaos_session():
    rng = random.Random(3)
    competitors = [
        (x, 2.0 - x) for x in (rng.uniform(0.0, 2.0) for _ in range(120))
    ]
    products = [(2.5 + rng.random(), 2.5 + rng.random()) for _ in range(6)]
    return MarketSession.from_points(competitors, products, max_entries=8)


def traversal_answers(session):
    """``{pid: (cost, upgraded)}`` priced from Algorithm 3's traversal."""
    answers = {}
    for pid in range(session.product_count):
        point = session.product_point(pid)
        answers[pid] = upgrade(
            get_dominating_skyline(session.competitor_index, point),
            point,
            session.cost_model,
            session.config,
        )
    return answers


def test_product_query_reaches_both_fault_points():
    """The maintained path consults ``rtree.query`` and ``kernels.dominance``."""
    session = chaos_session()
    session.dominator_skyline((9.0, 9.0))  # build outside the injector
    plan = FaultPlan(
        seed=1,
        points={
            "rtree.query": FaultSpec(rate=0.0),
            "kernels.dominance": FaultSpec(rate=0.0, kind="corrupt"),
        },
    )
    pids = list(range(session.product_count))
    with UpgradeEngine(
        session,
        EngineConfig(
            workers=0, cache=False, kernel_guard=KernelGuard(sample_rate=1.0)
        ),
    ) as engine:
        with inject_faults(plan) as injector:
            engine.execute_batch([ProductQuery(pid) for pid in pids])
        stats = injector.stats()
    # Once on the served path and once in the guard's traversal rerun.
    assert stats["rtree.query"]["reached"] == 2 * len(pids)
    # The rerun runs scalar, so every reach is the served path's filter.
    assert stats["kernels.dominance"]["reached"] == len(pids)


def test_corrupted_filter_is_caught_by_the_guard():
    session = chaos_session()
    session.dominator_skyline((9.0, 9.0))
    expected = traversal_answers(session)
    guard = KernelGuard(sample_rate=1.0)
    plan = FaultPlan(
        seed=2, points={"kernels.dominance": FaultSpec(1.0, kind="corrupt")}
    )
    try:
        with UpgradeEngine(
            session, EngineConfig(workers=0, cache=False, kernel_guard=guard)
        ) as engine:
            with inject_faults(plan):
                responses = engine.execute_batch(
                    [ProductQuery(pid) for pid in expected]
                )
        for pid, response in zip(expected, responses):
            (result,) = response.results
            assert (result.cost, result.upgraded) == expected[pid]
        assert guard.quarantined
    finally:
        set_kernels_enabled(True)


def test_concurrent_first_queries_build_once(monkeypatch):
    """64 cold product queries on 3 workers: one build, exact answers."""
    rng = random.Random(17)
    competitors = [
        (x, 2.0 - x + rng.uniform(0.0, 0.1))
        for x in (rng.uniform(0.0, 2.0) for _ in range(400))
    ]
    products = [(2.0 + rng.random(), 2.0 + rng.random()) for _ in range(64)]
    session = MarketSession.from_points(competitors, products, max_entries=8)
    builds = []
    original = SkylineSnapshot.build.__func__

    def counting_build(cls, tree):
        builds.append(threading.get_ident())
        time.sleep(0.02)  # widen the window for a racing second build
        return original(cls, tree)

    monkeypatch.setattr(SkylineSnapshot, "build", classmethod(counting_build))
    expected = traversal_answers(session)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with UpgradeEngine(
            session,
            EngineConfig(
                workers=3,
                batch_max=1,
                cache=False,
                kernel_guard=KernelGuard(sample_rate=0.0),
            ),
        ) as engine:
            pendings = engine.submit_batch(
                [ProductQuery(pid) for pid in expected]
            )
            responses = [p.result(timeout=60.0) for p in pendings]
    finally:
        sys.setswitchinterval(interval)
    for pid, response in zip(expected, responses):
        (result,) = response.results
        assert (result.cost, result.upgraded) == expected[pid]
    assert len(builds) == 1
