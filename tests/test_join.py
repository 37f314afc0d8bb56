"""Tests for Algorithm 4 (the best-first R-tree join)."""

import numpy as np
import pytest

from repro.core.join import JoinUpgrader
from repro.core.probing import improved_probing
from repro.core.types import UpgradeConfig
from repro.core.verify import brute_force_topk, verify_results
from repro.costs.model import paper_cost_model
from repro.data.generators import paper_workload
from repro.exceptions import ConfigurationError
from repro.kernels import use_kernels
from repro.rtree.tree import RTree

from conftest import make_mixed_instance

BOUNDS = ["nlb", "clb", "alb", "max"]


def build(competitors, products, max_entries=8):
    tree_p = RTree.bulk_load(competitors, max_entries=max_entries)
    tree_t = RTree.bulk_load(products, max_entries=max_entries)
    return tree_p, tree_t


class TestConfiguration:
    def test_unknown_bound(self):
        tree_p, tree_t = build([(0.5, 0.5)], [(1.0, 1.0)])
        with pytest.raises(ConfigurationError):
            JoinUpgrader(tree_p, tree_t, paper_cost_model(2), bound="xxx")

    def test_unknown_lbc_mode(self):
        tree_p, tree_t = build([(0.5, 0.5)], [(1.0, 1.0)])
        with pytest.raises(ConfigurationError):
            JoinUpgrader(
                tree_p, tree_t, paper_cost_model(2), lbc_mode="xxx"
            )

    def test_dimension_mismatch(self):
        tree_p = RTree.bulk_load([(0.5, 0.5)])
        tree_t = RTree.bulk_load([(1.0, 1.0, 1.0)])
        with pytest.raises(ConfigurationError):
            JoinUpgrader(tree_p, tree_t, paper_cost_model(3))

    def test_invalid_k(self):
        tree_p, tree_t = build([(0.5, 0.5)], [(1.0, 1.0)])
        upgrader = JoinUpgrader(tree_p, tree_t, paper_cost_model(2))
        with pytest.raises(ConfigurationError):
            upgrader.run(0)


@pytest.mark.parametrize("bound", BOUNDS)
class TestCorrectness:
    def test_mixed_instance_matches_oracle(self, bound):
        competitors, products = make_mixed_instance(seed=5)
        model = paper_cost_model(2)
        tree_p, tree_t = build(competitors, products)
        oracle = brute_force_topk(competitors, products, model, k=8)
        outcome = JoinUpgrader(tree_p, tree_t, model, bound=bound).run(8)
        np.testing.assert_allclose(
            [r.cost for r in outcome.results], [r.cost for r in oracle]
        )
        verify_results(outcome.results, competitors, model)

    def test_paper_layout_matches_oracle(self, bound):
        competitors, products = paper_workload(
            "independent", 400, 80, 3, seed=9
        )
        model = paper_cost_model(3)
        tree_p, tree_t = build(competitors, products)
        oracle = brute_force_topk(competitors, products, model, k=5)
        outcome = JoinUpgrader(tree_p, tree_t, model, bound=bound).run(5)
        np.testing.assert_allclose(
            [r.cost for r in outcome.results], [r.cost for r in oracle]
        )

    def test_anti_correlated_layout(self, bound):
        competitors, products = paper_workload(
            "anti_correlated", 400, 60, 2, seed=11
        )
        model = paper_cost_model(2)
        tree_p, tree_t = build(competitors, products)
        oracle = brute_force_topk(competitors, products, model, k=4)
        outcome = JoinUpgrader(tree_p, tree_t, model, bound=bound).run(4)
        np.testing.assert_allclose(
            [r.cost for r in outcome.results], [r.cost for r in oracle]
        )

    def test_results_stream_in_ascending_cost_order(self, bound):
        competitors, products = make_mixed_instance(seed=21)
        model = paper_cost_model(2)
        tree_p, tree_t = build(competitors, products)
        upgrader = JoinUpgrader(tree_p, tree_t, model, bound=bound)
        costs = [r.cost for r in upgrader.results()]
        assert len(costs) == len(products)
        assert costs == sorted(costs)


class TestEdgeCases:
    def test_empty_product_tree(self):
        tree_p = RTree.bulk_load([(0.5, 0.5)])
        upgrader = JoinUpgrader(tree_p, RTree(2), paper_cost_model(2))
        assert list(upgrader.results()) == []

    def test_empty_competitor_tree(self):
        tree_t = RTree.bulk_load([(1.0, 1.0), (2.0, 2.0)])
        upgrader = JoinUpgrader(RTree(2), tree_t, paper_cost_model(2))
        outcome = upgrader.run(2)
        assert [r.cost for r in outcome.results] == [0.0, 0.0]
        assert all(r.already_competitive for r in outcome.results)

    def test_k_exceeds_t(self):
        competitors, products = make_mixed_instance(seed=3, n_t=7)
        tree_p, tree_t = build(competitors, products)
        outcome = JoinUpgrader(tree_p, tree_t, paper_cost_model(2)).run(50)
        assert len(outcome.results) == 7

    def test_single_point_trees(self):
        tree_p, tree_t = build([(0.5, 0.5)], [(1.0, 1.0)])
        model = paper_cost_model(2)
        outcome = JoinUpgrader(tree_p, tree_t, model).run(1)
        oracle = brute_force_topk([(0.5, 0.5)], [(1.0, 1.0)], model, k=1)
        assert outcome.results[0].cost == pytest.approx(oracle[0].cost)

    def test_undominated_products_cost_zero(self):
        competitors = [(0.5, 0.5)]
        products = [(0.4, 0.6), (0.9, 0.9)]
        tree_p, tree_t = build(competitors, products)
        outcome = JoinUpgrader(tree_p, tree_t, paper_cost_model(2)).run(2)
        assert outcome.results[0].cost == 0.0
        assert outcome.results[0].record_id == 0

    def test_duplicate_products(self):
        competitors, _ = make_mixed_instance(seed=31)
        products = [(1.2, 1.2)] * 5
        tree_p, tree_t = build(competitors, products)
        outcome = JoinUpgrader(tree_p, tree_t, paper_cost_model(2)).run(5)
        costs = outcome.costs
        assert np.allclose(costs, costs[0])
        assert sorted(r.record_id for r in outcome.results) == list(range(5))


class TestReportsAndProgressiveness:
    def test_report_metadata(self):
        competitors, products = make_mixed_instance(seed=41)
        tree_p, tree_t = build(competitors, products)
        outcome = JoinUpgrader(
            tree_p, tree_t, paper_cost_model(2), bound="alb"
        ).run(5)
        assert outcome.report.algorithm == "join[alb]"
        times = outcome.report.extras["result_times"]
        assert len(times) == 5
        assert times == sorted(times)

    def test_early_stop_does_less_work(self):
        competitors, products = paper_workload(
            "independent", 1000, 300, 2, seed=13
        )
        model = paper_cost_model(2)
        tree_p, tree_t = build(competitors, products, max_entries=16)
        one = JoinUpgrader(tree_p, tree_t, model)
        one.run(1)
        pops_one = one.stats.heap_pops
        full = JoinUpgrader(tree_p, tree_t, model)
        full.run(300)
        assert pops_one < full.stats.heap_pops

    def test_stats_reset_between_runs(self):
        competitors, products = make_mixed_instance(seed=51)
        tree_p, tree_t = build(competitors, products)
        upgrader = JoinUpgrader(tree_p, tree_t, paper_cost_model(2))
        upgrader.run(1)
        first = upgrader.stats.heap_pops
        upgrader.run(1)
        assert upgrader.stats.heap_pops == first


def _tied_paper_layout():
    """3-d paper layout plus repeated products (equal-cost ties)."""
    competitors, products = paper_workload(
        "independent", 400, 60, 3, seed=9
    )
    return competitors, np.vstack([products, products[::7]])


@pytest.mark.parametrize("kernels", [True, False])
@pytest.mark.parametrize("bound", BOUNDS)
class TestCorrectedLeafPricing:
    """Corrected mode prices each T-leaf's products in one pass."""

    @pytest.mark.parametrize("k", [1, 5, None])
    def test_stream_matches_improved_probing(self, bound, kernels, k):
        competitors, products = _tied_paper_layout()
        k = k or len(products)
        model = paper_cost_model(3)
        # Validating mode: every priced skyline must be a true antichain
        # of dominators (Lemma 1), on both paths.
        config = UpgradeConfig(validate=True)
        tree_p, tree_t = build(competitors, products)
        with use_kernels(kernels):
            probing = improved_probing(tree_p, products, model, k, config)
            outcome = JoinUpgrader(
                tree_p, tree_t, model, bound=bound, config=config
            ).run(k)
        assert [(r.record_id, r.cost) for r in outcome.results] == [
            (r.record_id, r.cost) for r in probing.results
        ]
        assert [r.upgraded for r in outcome.results] == [
            r.upgraded for r in probing.results
        ]

    @pytest.mark.parametrize("k", [1, 5, None])
    def test_every_product_priced_once(self, bound, kernels, k):
        competitors, products = _tied_paper_layout()
        model = paper_cost_model(3)
        tree_p, tree_t = build(competitors, products)
        upgrader = JoinUpgrader(tree_p, tree_t, model, bound=bound)
        with use_kernels(kernels):
            upgrader.run(k or len(products))
        assert upgrader.stats.upgrade_calls == len(products)

    def test_lbc_work_does_not_grow_with_leaf_size(self, bound, kernels):
        """Products added inside a T-leaf's MBR add no LBC evaluations."""
        rng = np.random.default_rng(3)
        competitors = 0.05 + rng.random((300, 2))
        corners = [(0.6, 1.4), (1.4, 0.6), (0.6, 0.6), (1.4, 1.4)]
        inner = 0.6 + rng.random((20, 2)) * 0.8
        model = paper_cost_model(2)
        tree_p = RTree.bulk_load(competitors, max_entries=8)
        counts = {}
        for name, products in (
            ("corners", corners),
            ("filled", np.vstack([corners, inner])),
        ):
            tree_t = RTree.bulk_load(products, max_entries=32)
            assert tree_t.root_entry().child.is_leaf
            upgrader = JoinUpgrader(tree_p, tree_t, model, bound=bound)
            with use_kernels(kernels):
                upgrader.run(len(products))
            counts[name] = upgrader.stats
        assert counts["filled"].lbc_evaluations == (
            counts["corners"].lbc_evaluations
        )
        assert counts["filled"].upgrade_calls == 24


class TestLbcModes:
    def test_corrected_matches_oracle_where_paper_mode_may_not(self):
        competitors, products = paper_workload(
            "anti_correlated", 2000, 150, 2, seed=1
        )
        model = paper_cost_model(2)
        tree_p, tree_t = build(competitors, products, max_entries=16)
        oracle = brute_force_topk(competitors, products, model, k=3)
        corrected = JoinUpgrader(
            tree_p, tree_t, model, lbc_mode="corrected"
        ).run(3)
        np.testing.assert_allclose(
            [r.cost for r in corrected.results], [r.cost for r in oracle]
        )
        paper = JoinUpgrader(tree_p, tree_t, model, lbc_mode="paper").run(3)
        # Paper mode still returns *valid* upgrades (never dominated) ...
        verify_results(paper.results, competitors, model)
        # ... but may rank costlier products first (the documented defect).
        assert [r.cost for r in paper.results][0] >= oracle[0].cost - 1e-9

    @pytest.mark.parametrize(
        "kernels, expected",
        [
            (
                True,
                dict(
                    node_accesses=65, dominance_tests=116020,
                    heap_pushes=153, heap_pops=71, upgrade_calls=3,
                    lbc_evaluations=5275, points_scanned=0,
                    entries_pruned=819, skyline_points=168,
                ),
            ),
            (
                False,
                dict(
                    node_accesses=65, dominance_tests=129712,
                    heap_pushes=489, heap_pops=407, upgrade_calls=3,
                    lbc_evaluations=5275, points_scanned=168,
                    entries_pruned=819, skyline_points=168,
                ),
            ),
        ],
    )
    def test_paper_mode_work_is_pinned(self, kernels, expected):
        """Paper mode stays lazy, one product per pop (Algorithm 4
        lines 9-11 verbatim): its work counters are pinned exactly."""
        competitors, products = paper_workload(
            "anti_correlated", 2000, 150, 2, seed=1
        )
        model = paper_cost_model(2)
        tree_p, tree_t = build(competitors, products, max_entries=16)
        upgrader = JoinUpgrader(tree_p, tree_t, model, lbc_mode="paper")
        with use_kernels(kernels):
            upgrader.run(3)
        assert upgrader.stats.as_dict() == expected
