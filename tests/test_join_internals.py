"""White-box tests for Algorithm 4's internals.

These pin the heuristics (3/4), the join-list refinement semantics
(lines 22-31), and the antichain leaf fast-path — behaviours that the
black-box agreement tests exercise but do not isolate.
"""

import numpy as np
import pytest

from repro.core.dominators import get_dominating_skyline_multi
from repro.core.join import JoinUpgrader, _VECTOR_JL_FROM
from repro.costs.model import paper_cost_model
from repro.geometry.point import dominates
from repro.instrumentation import Counters
from repro.kernels import use_kernels
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.tree import RTree


def leaf_entry(point, rid=0):
    return Entry.for_point(tuple(point), rid)


def node_entry(points):
    node = Node(0, [leaf_entry(p, i) for i, p in enumerate(points)])
    return Entry.for_node(node)


@pytest.fixture()
def upgrader():
    tree_p = RTree.bulk_load([(0.5, 0.5)])
    tree_t = RTree.bulk_load([(1.5, 1.5)])
    return JoinUpgrader(tree_p, tree_t, paper_cost_model(2))


class TestPickCompetitorEntry:
    def _jl(self, upgrader, e_t, entries):
        pairs = upgrader._pair_bounds(e_t, entries)
        return entries, pairs

    def test_clb_picks_min_positive_nonleaf(self, upgrader):
        e_t = node_entry([(1.5, 1.5)])
        near = node_entry([(0.9, 0.9)])    # small positive bound
        far = node_entry([(0.1, 0.1)])     # large positive bound
        jl, pairs = self._jl(upgrader, e_t, [far, near])
        expandable = [e for e in jl if not e.is_leaf_entry]
        picked = upgrader._pick_competitor_entry(jl, pairs, expandable)
        assert picked is near

    def test_max_picks_largest(self, upgrader):
        upgrader.bound = "max"
        e_t = node_entry([(1.5, 1.5)])
        near = node_entry([(0.9, 0.9)])
        far = node_entry([(0.1, 0.1)])
        jl, pairs = self._jl(upgrader, e_t, [far, near])
        picked = upgrader._pick_competitor_entry(jl, pairs, jl)
        assert picked is far

    def test_leaf_entries_never_picked(self, upgrader):
        e_t = node_entry([(1.5, 1.5)])
        point = leaf_entry((0.2, 0.2))
        inner = node_entry([(0.9, 0.9)])
        jl, pairs = self._jl(upgrader, e_t, [point, inner])
        expandable = [e for e in jl if not e.is_leaf_entry]
        picked = upgrader._pick_competitor_entry(jl, pairs, expandable)
        assert picked is inner

    def test_alb_picks_entry_matching_aggregate(self, upgrader):
        upgrader.bound = "alb"
        e_t = node_entry([(1.5, 1.5)])
        # Two signature partitions; ALB = min over partitions of max.
        a1 = node_entry([(0.3, 0.3)])
        a2 = node_entry([(0.2, 0.2)])
        jl, pairs = self._jl(upgrader, e_t, [a1, a2])
        picked = upgrader._pick_competitor_entry(jl, pairs, jl)
        assert picked in (a1, a2)


class TestRefineJoinList:
    def test_dominated_child_dropped(self, upgrader):
        e_t = node_entry([(1.5, 1.5)])
        strong = node_entry([(0.1, 0.1)])  # its max dominates everything
        parent = node_entry([(0.8, 0.8)])  # child dominated by strong
        jl = [strong, parent]
        pairs = upgrader._pair_bounds(e_t, jl)
        new_jl, new_pairs = upgrader._refine_join_list(
            e_t, jl, pairs, parent
        )
        assert new_jl == [strong]
        assert len(new_pairs) == 1

    def test_child_drops_dominated_survivors(self, upgrader):
        e_t = node_entry([(1.5, 1.5)])
        weak = node_entry([(0.9, 0.9)])
        parent = node_entry([(0.1, 0.1)])  # child dominates weak wholesale
        jl = [weak, parent]
        pairs = upgrader._pair_bounds(e_t, jl)
        new_jl, _ = upgrader._refine_join_list(e_t, jl, pairs, parent)
        assert len(new_jl) == 1
        assert new_jl[0].is_leaf_entry
        assert new_jl[0].point == (0.1, 0.1)

    def test_children_outside_adr_filtered(self, upgrader):
        e_t = node_entry([(1.5, 1.5)])
        parent = node_entry([(0.5, 0.5), (2.5, 2.5)])  # second is outside
        jl = [parent]
        pairs = upgrader._pair_bounds(e_t, jl)
        new_jl, _ = upgrader._refine_join_list(e_t, jl, pairs, parent)
        assert [e.point for e in new_jl] == [(0.5, 0.5)]

    def test_vector_and_scalar_paths_agree(self, upgrader):
        rng = np.random.default_rng(12)
        e_t = node_entry([(1.5, 1.5)])
        base_points = [tuple(p) for p in rng.random((_VECTOR_JL_FROM + 8, 2))]
        parent_points = [tuple(p * 0.5) for p in rng.random((6, 2))]
        # Scalar path: a small join list below the vector threshold.
        small_jl = [leaf_entry(p, i) for i, p in enumerate(base_points[:4])]
        parent = node_entry(parent_points)
        small = small_jl + [parent]
        pairs = upgrader._pair_bounds(e_t, small)
        scalar_jl, _ = upgrader._refine_join_list(e_t, small, pairs, parent)
        # Vector path: same content padded past the threshold with the
        # first entries duplicated at distinct coordinates.
        big_jl = [leaf_entry(p, i) for i, p in enumerate(base_points)]
        big = big_jl + [parent]
        pairs_big = upgrader._pair_bounds(e_t, big)
        vector_jl, _ = upgrader._refine_join_list(e_t, big, pairs_big, parent)
        # Shared prefix entries must receive identical keep/drop decisions.
        scalar_kept = {e.point for e in scalar_jl if e.is_leaf_entry}
        vector_kept = {e.point for e in vector_jl if e.is_leaf_entry}
        for p in base_points[:4]:
            assert (p in scalar_kept) == (p in vector_kept)


class TestLeafFastPath:
    def test_antichain_fast_path_matches_traversal(self, upgrader):
        rng = np.random.default_rng(7)
        # Build an antichain join list large enough for the fast path.
        pts = [
            (round(x, 3), round(1.0 - x, 3)) for x in rng.random(40)
        ]
        # A coordinate-sum tie between distinct points, listed so that
        # join-list order is not (sum, point) order, and a duplicate.
        pts += [(0.4, 0.6), (0.3, 0.7), (0.4, 0.6)]
        rng.shuffle(pts)
        jl = [leaf_entry(p, i) for i, p in enumerate(pts)]
        assert len(jl) >= _VECTOR_JL_FROM
        t = (0.9, 0.9)
        fast = upgrader._leaf_dominator_skyline(jl, t)
        slow = get_dominating_skyline_multi(jl, t)
        assert fast == slow  # same points, same order, one copy each
        assert fast.count((0.4, 0.6)) == 1
        assert fast.index((0.3, 0.7)) < fast.index((0.4, 0.6))
        for p in fast:
            assert dominates(p, t)

    def test_mixed_jl_uses_traversal(self, upgrader):
        jl = [leaf_entry((0.2, 0.2))] * (_VECTOR_JL_FROM + 1)
        jl.append(node_entry([(0.1, 0.5), (0.5, 0.1)]))
        t = (1.0, 1.0)
        result = upgrader._leaf_dominator_skyline(jl, t)
        assert sorted(result) == [(0.1, 0.5), (0.2, 0.2), (0.5, 0.1)]

    def test_small_jl_uses_traversal(self, upgrader):
        jl = [leaf_entry((0.3, 0.3)), leaf_entry((0.6, 0.2))]
        result = upgrader._leaf_dominator_skyline(jl, (1.0, 1.0))
        assert sorted(result) == [(0.3, 0.3), (0.6, 0.2)]


def _refine_both_ways(upgrader, e_t, jl, pairs, picked):
    """``_refine_join_list_inner`` with kernels on, then off."""
    runs = []
    for enabled in (True, False):
        upgrader.stats = Counters()
        with use_kernels(enabled):
            new_jl, new_pairs = upgrader._refine_join_list_inner(
                e_t, jl, pairs, picked
            )
        runs.append((new_jl, new_pairs, upgrader.stats))
    return runs


def _assert_same_refinement(runs):
    (jl_on, pairs_on, on), (jl_off, pairs_off, off) = runs
    assert [id(e) for e in jl_on] == [id(e) for e in jl_off]
    assert pairs_on == pairs_off
    for field in ("dominance_tests", "entries_pruned", "lbc_evaluations"):
        assert getattr(on, field) == getattr(off, field), field


class TestRefineBroadcastMatchesLoop:
    """The kernel path of lines 22-31 replays the scalar loop exactly."""

    @pytest.mark.parametrize("lbc_mode", ["corrected", "paper"])
    def test_earlier_child_removes_a_later_childs_dominator(self, lbc_mode):
        tree = RTree.bulk_load([(0.5, 0.5)])
        upgrader = JoinUpgrader(
            tree, tree, paper_cost_model(2), lbc_mode=lbc_mode,
            vector_jl_from=1,
        )
        e_t = node_entry([(1.5, 1.5), (2.0, 2.0)])
        base = leaf_entry((0.5, 0.5))
        # Child 0 removes ``base``; ``base`` dominates child 1.  Child 2
        # is dominated by ``base`` and removes nothing, child 3 by no one.
        picked = node_entry([(0.2, 0.2), (0.7, 0.7), (0.6, 0.9), (0.1, 1.2)])
        jl = [base, picked]
        pairs = upgrader._pair_bounds(e_t, jl)
        runs = _refine_both_ways(upgrader, e_t, jl, pairs, picked)
        _assert_same_refinement(runs)
        new_jl, _, stats = runs[0]
        assert [e.point for e in new_jl] == [(0.2, 0.2), (0.1, 1.2)]
        # ``base`` is live only at child 0: 2 base tests there, then the
        # sibling checks 0 + 2 + 2 + 2.
        assert stats.dominance_tests == 2 + 6
        assert stats.entries_pruned == 1 + 2  # base, children 1 and 2

    @pytest.mark.parametrize("lbc_mode", ["corrected", "paper"])
    def test_later_child_removes_an_earlier_childs_dominator(self, lbc_mode):
        tree = RTree.bulk_load([(0.5, 0.5)])
        upgrader = JoinUpgrader(
            tree, tree, paper_cost_model(2), lbc_mode=lbc_mode,
            vector_jl_from=1,
        )
        e_t = node_entry([(1.5, 1.5), (2.0, 2.0)])
        keep = leaf_entry((0.05, 1.5))
        base = leaf_entry((0.5, 0.5))
        picked = node_entry([(0.7, 0.7), (0.2, 0.2)])
        jl = [keep, base, picked]
        pairs = upgrader._pair_bounds(e_t, jl)
        runs = _refine_both_ways(upgrader, e_t, jl, pairs, picked)
        _assert_same_refinement(runs)
        new_jl, _, stats = runs[0]
        assert [e.point for e in new_jl] == [(0.05, 1.5), (0.2, 0.2)]
        # Both base entries are live at both children: child 1 removes
        # ``base`` only after its own check.
        assert stats.dominance_tests == 4 + 4
        assert stats.entries_pruned == 2  # child 0 flagged, base removed

    @pytest.mark.parametrize("lbc_mode", ["corrected", "paper"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_refinement_walks_agree(self, lbc_mode, seed):
        rng = np.random.default_rng(seed)
        dims = 2 + seed % 3
        # Quarter-grid coordinates: coordinate ties and duplicate points.
        competitors = rng.integers(0, 5, size=(300, dims)) / 4.0
        products = 1.0 + rng.integers(0, 5, size=(60, dims)) / 4.0
        tree_p = RTree.bulk_load(competitors, max_entries=4)
        tree_t = RTree.bulk_load(products, max_entries=4)
        upgrader = JoinUpgrader(
            tree_p, tree_t, paper_cost_model(dims), lbc_mode=lbc_mode,
            vector_jl_from=1,
        )
        targets = [tree_t.root_entry()] + list(tree_t.root.entries)
        steps = 0
        for e_t in targets:
            jl = [tree_p.root_entry()]
            with use_kernels(False):
                pairs = upgrader._pair_bounds(e_t, jl)
            while steps < 200:
                expandable = [e for e in jl if not e.is_leaf_entry]
                if not expandable:
                    break
                picked = expandable[int(rng.integers(len(expandable)))]
                runs = _refine_both_ways(upgrader, e_t, jl, pairs, picked)
                _assert_same_refinement(runs)
                jl, pairs, _ = runs[0]
                steps += 1
        assert steps > 20
