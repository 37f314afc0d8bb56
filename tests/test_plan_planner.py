"""The cost-based planner: profiling, enumeration, choice.

The planner's contract has three parts pinned here: (1) enumeration
covers every physical alternative and the choice is the cheapest
estimate with the historical default winning ties; (2) whatever the
planner picks, the *answer* is identical to every fixed method — plan
choice changes work, never results; (3) planning is pure: the choice
and every estimate depend on the catalog profile, ``k`` and the
checked-in unit costs, never on observed runtimes.
"""

import numpy as np
import pytest

from repro.core.api import top_k_upgrades
from repro.costs.model import paper_cost_model
from repro.instrumentation import Counters
from repro.plan import (
    LogicalPlan,
    PhysicalPlan,
    Planner,
    default_planner,
    execute_plan,
    profile_catalog,
)
from repro.plan.cost import _UNIT_COST_SEEDS
from repro.plan.planner import _CANDIDATE_ORDER, attach_actual
from repro.rtree.stats import collect_stats
from repro.rtree.tree import RTree


def make_workload(seed=31, n_p=400, n_t=150, dims=2):
    rng = np.random.default_rng(seed)
    P = rng.random((n_p, dims))
    T = 1.0 + rng.random((n_t, dims))
    return P, T


def make_profile(P, T):
    tree = RTree.bulk_load(P)
    return profile_catalog(tree, len(T), T.shape[1])


class TestProfileAndEnumeration:
    def test_profile_describes_catalog(self):
        P, T = make_workload()
        profile = make_profile(P, T)
        assert profile.n_competitors == len(P)
        assert profile.n_products == len(T)
        assert profile.dims == 2
        assert profile.skyline_estimate >= 1.0
        assert profile.competitor_height >= 1
        doc = profile.to_dict()
        assert doc["n_competitors"] == len(P)

    def test_candidates_cover_every_alternative(self):
        P, T = make_workload()
        planner = Planner()
        logical = LogicalPlan(k=3, profile=make_profile(P, T))
        plans = planner.candidates(logical)
        assert [(p.method, p.bound) for p in plans] == list(_CANDIDATE_ORDER)

    def test_chosen_is_cheapest_estimate(self):
        P, T = make_workload()
        planner = Planner()
        planned = planner.plan(LogicalPlan(k=3, profile=make_profile(P, T)))
        cheapest = min(planned.candidates, key=lambda c: c.seconds)
        assert planned.plan == cheapest.plan
        assert not planned.forced

    def test_force_is_honored_but_still_costed(self):
        P, T = make_workload()
        planner = Planner()
        force = PhysicalPlan(method="basic-probing")
        planned = planner.plan(
            LogicalPlan(k=1, profile=make_profile(P, T)), force=force
        )
        assert planned.plan == force
        assert planned.forced
        # The full candidate set is still in the tree for EXPLAIN.
        assert len(planned.candidates) >= len(_CANDIDATE_ORDER)

    def test_basic_probing_never_wins(self):
        # Basic probing exists as the recorded worst case; on any real
        # catalog its quadratic estimate must lose.
        P, T = make_workload(n_p=800, n_t=200)
        planner = Planner()
        planned = planner.plan(LogicalPlan(k=5, profile=make_profile(P, T)))
        assert planned.plan.method != "basic-probing"


def _shape_from_collect_stats(tree):
    """(nodes, height, leaf fanout) as the full per-entry walk reports it."""
    stats = collect_stats(tree)
    return stats.node_count, stats.height, stats.leaf_fill


class TestCatalogShape:
    """The planner's node-only shape walk equals the full statistics."""

    def _assert_profile_matches(self, tree_p, tree_t, dims):
        profile = profile_catalog(tree_p, len(tree_t), dims, tree_t)
        if tree_p.is_empty():
            expected_p = (1, 1, 0.0)
        else:
            expected_p = _shape_from_collect_stats(tree_p)
        assert (
            profile.competitor_nodes,
            profile.competitor_height,
            profile.competitor_fanout,
        ) == expected_p
        if not tree_t.is_empty():
            nodes, height, _ = _shape_from_collect_stats(tree_t)
            assert (profile.product_nodes, profile.product_height) == (
                nodes,
                height,
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bulk_loaded_trees(self, seed):
        rng = np.random.default_rng(seed)
        dims = 2 + seed % 3
        fanout = int(rng.integers(4, 33))
        tree_p = RTree.bulk_load(
            rng.random((int(rng.integers(50, 900)), dims)), max_entries=fanout
        )
        tree_t = RTree.bulk_load(
            1.0 + rng.random((int(rng.integers(1, 300)), dims)),
            max_entries=fanout,
        )
        self._assert_profile_matches(tree_p, tree_t, dims)

    def test_empty_competitor_tree(self):
        tree_t = RTree.bulk_load([(1.5, 1.5), (1.2, 1.8)])
        self._assert_profile_matches(RTree(2), tree_t, 2)

    def test_single_leaf(self):
        tree_p = RTree.bulk_load([(0.1, 0.2), (0.3, 0.1), (0.2, 0.2)])
        assert tree_p.height == 1
        self._assert_profile_matches(tree_p, tree_p, 2)

    def test_after_splits_and_condensing_deletes(self):
        rng = np.random.default_rng(5)
        points = [tuple(p) for p in rng.random((400, 3))]
        tree = RTree(3, max_entries=6)
        for i, p in enumerate(points):
            tree.insert(p, i)
        grown_height = tree.height
        for i in range(0, 390):
            assert tree.delete(points[i], i)
            if i % 97 == 0:
                self._assert_profile_matches(tree, tree, 3)
        assert tree.height < grown_height  # the deletes condensed levels
        self._assert_profile_matches(tree, tree, 3)


class TestPlanIndependentAnswers:
    @pytest.mark.parametrize("dims", [2, 3])
    def test_every_plan_same_results(self, dims):
        P, T = make_workload(seed=77, n_p=300, n_t=90, dims=dims)
        tree = RTree.bulk_load(P)
        model = paper_cost_model(dims)
        profile = profile_catalog(tree, len(T), dims)
        planner = Planner()
        logical = LogicalPlan(k=7, profile=profile)
        from repro.core.types import UpgradeConfig

        reference = None
        for candidate in planner.plan(logical).candidates:
            outcome = execute_plan(
                candidate.plan, tree, T, model, 7, UpgradeConfig()
            )
            got = [(r.record_id, pytest.approx(r.cost)) for r in
                   outcome.results]
            if reference is None:
                reference = got
            else:
                assert got == reference, candidate.plan.label

    def test_auto_method_equals_fixed_join(self):
        P, T = make_workload(seed=5)
        fixed = top_k_upgrades(P, T, k=5, method="join")
        auto = top_k_upgrades(P, T, k=5, method="auto", planner=Planner())
        assert [r.record_id for r in auto.results] == [
            r.record_id for r in fixed.results
        ]
        assert [r.cost for r in auto.results] == pytest.approx(
            [r.cost for r in fixed.results]
        )
        assert auto.report.extras["plan"]


class TestPurePlanning:
    def make_planned(self, planner):
        P, T = make_workload()
        return planner.plan(LogicalPlan(k=1, profile=make_profile(P, T)))

    @pytest.mark.parametrize("ratio", [1.1, 2.9, 50.0, 0.01])
    def test_observations_keep_the_plan(self, ratio):
        planner = Planner()
        planned = self.make_planned(planner)
        for _ in range(10):
            planner.observe(planned, planned.estimated_seconds * ratio)
        assert self.make_planned(planner) == self.make_planned(Planner())

    def test_estimates_use_the_checked_in_unit_costs(self):
        planned = self.make_planned(Planner())
        for candidate in planned.candidates:
            units = _UNIT_COST_SEEDS[candidate.plan.family]
            assert candidate.seconds == sum(
                u * f for u, f in zip(units, candidate.work.features())
            )

    def test_stats_snapshot_shape(self):
        planner = Planner()
        planned = self.make_planned(planner)
        planner.observe(planned, planned.estimated_seconds)
        stats = planner.stats()
        assert set(stats) == {"plans_chosen", "plan_health", "cost_model"}
        (label,) = stats["plan_health"].keys()
        assert stats["plan_health"][label]["observations"] == 1
        assert stats["plan_health"][label]["last_ratio"] == 1.0


class TestExplainSurface:
    def test_explain_attaches_actuals(self):
        P, T = make_workload()
        outcome = top_k_upgrades(
            P, T, k=3, method="auto", explain=True, planner=Planner()
        )
        report = outcome.report.extras["explain"]
        assert report.tree.actual is not None
        assert report.tree.actual["seconds"] > 0
        chosen_children = [c for c in report.tree.children if c.chosen]
        assert len(chosen_children) == 1
        assert chosen_children[0].actual is not None
        # Every candidate carries an estimate; losers carry no actual.
        for child in report.tree.children:
            assert child.estimated["seconds"] > 0
            if not child.chosen:
                assert child.actual is None

    def test_explain_on_forced_method(self):
        P, T = make_workload()
        outcome = top_k_upgrades(
            P, T, k=2, method="probing", explain=True, planner=Planner()
        )
        report = outcome.report.extras["explain"]
        assert report.chosen == "probing"
        assert "(forced)" in report.tree.label

    def test_attach_actual_with_counters(self):
        P, T = make_workload()
        planner = Planner()
        planned = planner.plan(LogicalPlan(k=1, profile=make_profile(P, T)))
        report = planned.explain()
        counters = Counters()
        counters.node_accesses = 7
        attach_actual(report, 0.5, counters)
        assert report.tree.actual["node_accesses"] == 7.0


def test_default_planner_is_a_singleton():
    assert default_planner() is default_planner()
