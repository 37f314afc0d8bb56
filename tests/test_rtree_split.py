"""Tests for the node split strategies and the invariant checker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, RTreeError
from repro.geometry.mbr import MBR
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.split import (
    get_split_function,
    linear_split,
    quadratic_split,
)
from repro.rtree.tree import RTree
from repro.rtree.validate import validate_rtree

coord = st.floats(
    min_value=-5, max_value=5, allow_nan=False, allow_infinity=False
)


def entries_from(points):
    return [Entry.for_point(tuple(p), i) for i, p in enumerate(points)]


@pytest.mark.parametrize(
    "split", [quadratic_split, linear_split], ids=["quadratic", "linear"]
)
class TestSplits:
    def test_respects_minimum(self, split):
        entries = entries_from([(float(i), 0.0) for i in range(9)])
        a, b = split(entries, 3)
        assert len(a) >= 3 and len(b) >= 3
        assert len(a) + len(b) == 9

    def test_partitions_without_loss(self, split):
        entries = entries_from([(float(i), float(-i)) for i in range(11)])
        a, b = split(entries, 4)
        ids = sorted(e.record_id for e in a + b)
        assert ids == list(range(11))

    def test_degenerate_identical_points(self, split):
        entries = entries_from([(1.0, 1.0)] * 8)
        a, b = split(entries, 3)
        assert len(a) + len(b) == 8
        assert min(len(a), len(b)) >= 3

    def test_too_few_entries_rejected(self, split):
        entries = entries_from([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ConfigurationError):
            split(entries, 2)

    def test_invalid_min_entries(self, split):
        entries = entries_from([(float(i), 0.0) for i in range(5)])
        with pytest.raises(ConfigurationError):
            split(entries, 0)

    @given(
        st.lists(
            st.tuples(coord, coord), min_size=8, max_size=40, unique=True
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_split_properties(self, split, points):
        entries = entries_from(points)
        minimum = max(1, len(entries) // 4)
        a, b = split(entries, minimum)
        assert len(a) >= minimum and len(b) >= minimum
        assert sorted(e.record_id for e in a + b) == sorted(
            e.record_id for e in entries
        )

    def test_seeds_come_from_opposite_clusters(self, split):
        # Two far-apart 2-d clusters: the seed pair must straddle them
        # (full group separation is heuristic-dependent, seeds are not).
        from repro.rtree.split import (
            _pick_seeds_linear,
            _pick_seeds_quadratic,
            corners,
        )

        left = [(0.0 + i * 0.01, i * 0.02) for i in range(5)]
        right = [(100.0 + i * 0.01, i * 0.02) for i in range(5)]
        entries = entries_from(left + right)
        if split is quadratic_split:
            i, j = _pick_seeds_quadratic(*corners(entries))
        else:
            i, j = _pick_seeds_linear(entries)
        assert (entries[i].point[0] < 50) != (entries[j].point[0] < 50)


class TestQuadraticSeparation:
    def test_quadratic_fully_separates_clusters(self):
        left = [(0.0 + i * 0.01, i * 0.02) for i in range(5)]
        right = [(100.0 + i * 0.01, i * 0.02) for i in range(5)]
        a, b = quadratic_split(entries_from(left + right), 4)
        groups = [sorted(e.point[0] for e in g) for g in (a, b)]
        groups.sort(key=lambda g: g[0])
        assert all(x < 50 for x in groups[0])
        assert all(x > 50 for x in groups[1])


class TestQuadraticSeeds:
    def test_most_wasteful_pair_when_every_waste_is_below_minus_one(self):
        # Pair wastes: (0, 1) -79, (0, 2) -56, (1, 2) -79.
        from repro.rtree.split import _pick_seeds_quadratic, corners

        boxes = [[(lo, lo), (lo + 10, lo + 10)] for lo in (0.0, 1.0, 2.0)]
        entries = [Entry.for_node(Node(0, entries_from(b))) for b in boxes]
        assert _pick_seeds_quadratic(*corners(entries)) == (0, 2)
        a, b = quadratic_split(entries, 1)
        assert (a[0], b[0]) == (entries[0], entries[2])


class TestSplitRegistry:
    def test_lookup(self):
        assert get_split_function("quadratic") is quadratic_split
        assert get_split_function("linear") is linear_split

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_split_function("bogus")


class TestValidator:
    def test_detects_stale_parent_mbr(self):
        tree = RTree(2, max_entries=4)
        for i in range(30):
            tree.insert((i * 0.01, i * 0.01), i)
        # Corrupt: move a leaf point without refreshing ancestor MBRs.
        node = tree.root
        while not node.is_leaf:
            node = node.entries[0].child
        node.entries[0].point = (99.0, 99.0)
        node.entries[0].mbr = type(node.entries[0].mbr).from_point(
            (99.0, 99.0)
        )
        with pytest.raises(RTreeError):
            validate_rtree(tree)

    @pytest.mark.parametrize(
        "low, high",
        [((0.5, 0.5), (0.5, 0.6)), ((0.4, 0.5), (0.5, 0.5)),
         ((0.6, 0.6), (0.6, 0.6))],
        ids=["high-off", "low-off", "other-point"],
    )
    def test_detects_leaf_mbr_that_is_not_its_point(self, low, high):
        tree = RTree(2, max_entries=4)
        tree.insert((0.5, 0.5), 0)
        tree.insert((0.1, 0.9), 1)
        tree.root.entries[0].mbr = MBR(low, high)
        with pytest.raises(RTreeError, match="does not match point"):
            validate_rtree(tree)

    def test_detects_wrong_size(self):
        tree = RTree(2, max_entries=4)
        tree.insert((0.5, 0.5), 0)
        tree._size = 5
        with pytest.raises(RTreeError):
            validate_rtree(tree)

    def test_detects_point_in_internal_node(self):
        tree = RTree(2, max_entries=4)
        for i in range(30):
            tree.insert((i * 0.01, (30 - i) * 0.01), i)
        tree.root.entries.append(Entry.for_point((0.0, 0.0), 99))
        with pytest.raises(RTreeError):
            validate_rtree(tree)

    def test_underfull_node_detected_when_fill_checked(self):
        tree = RTree(2, max_entries=4)
        for i in range(30):
            tree.insert((i * 0.03, i * 0.02), i)
        victim = tree.root.entries[0].child
        while not victim.is_leaf:
            victim = victim.entries[0].child
        removed = victim.entries.pop()
        # Patch ancestors so only the fill invariant trips.
        node = Node(0, [removed])  # keep the point count consistent
        tree.root.entries.append(Entry.for_node(node))
        with pytest.raises(RTreeError):
            validate_rtree(tree, check_fill=True)
