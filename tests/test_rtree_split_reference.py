"""The broadcast quadratic split and ChooseSubtree against the scalar loops.

``loop_quadratic_split``, ``loop_pick_seeds_quadratic`` and
``loop_choose_subtree`` are Guttman's per-entry loops as the library ran
them before both became numpy broadcasts over a node's corner arrays.
They are the reference: the broadcast versions must make exactly the
same decisions, so a split must return the same entry objects in the same
group order, ChooseSubtree the same child, and a tree driven through any
insert/delete stream must come out node for node identical.

One line differs from the library's former loop: PickSeeds starts from
``worst = -inf``, not ``-1.0``, so that overlapping boxes of area above 1,
whose wastes are all below -1, still yield the most wasteful pair.
"""

import math
import random
from typing import List, Tuple
from unittest import mock

import pytest

import repro.rtree.insert as insert_module
from repro.rtree.entry import Entry
from repro.rtree.insert import choose_subtree
from repro.rtree.node import Node
from repro.rtree.split import (
    _check_split_args,
    areas,
    corners,
    quadratic_split,
)
from repro.rtree.tree import RTree
from repro.rtree.validate import validate_rtree


# -- the reference loops ------------------------------------------------------


def loop_quadratic_split(
    entries: List[Entry], min_entries: int
) -> Tuple[List[Entry], List[Entry]]:
    _check_split_args(entries, min_entries)
    seed_a, seed_b = loop_pick_seeds_quadratic(entries)
    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    mbr_a = entries[seed_a].mbr
    mbr_b = entries[seed_b].mbr
    remaining = [
        e for i, e in enumerate(entries) if i != seed_a and i != seed_b
    ]

    while remaining:
        # If one group must take everything left to reach the minimum, do so.
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(remaining)
            break
        # Pick the entry with the strongest preference for one group.
        best_idx = -1
        best_diff = -1.0
        best_growth: Tuple[float, float] = (0.0, 0.0)
        for i, e in enumerate(remaining):
            grow_a = mbr_a.enlargement(e.mbr)
            grow_b = mbr_b.enlargement(e.mbr)
            diff = abs(grow_a - grow_b)
            if diff > best_diff:
                best_diff = diff
                best_idx = i
                best_growth = (grow_a, grow_b)
        entry = remaining.pop(best_idx)
        grow_a, grow_b = best_growth
        if grow_a < grow_b:
            choose_a = True
        elif grow_b < grow_a:
            choose_a = False
        elif mbr_a.area() != mbr_b.area():
            choose_a = mbr_a.area() < mbr_b.area()
        else:
            choose_a = len(group_a) <= len(group_b)
        if choose_a:
            group_a.append(entry)
            mbr_a = mbr_a.union(entry.mbr)
        else:
            group_b.append(entry)
            mbr_b = mbr_b.union(entry.mbr)
    return group_a, group_b


def loop_pick_seeds_quadratic(entries: List[Entry]) -> Tuple[int, int]:
    worst = -math.inf
    seeds = (0, 1)
    for i in range(len(entries)):
        mi = entries[i].mbr
        area_i = mi.area()
        for j in range(i + 1, len(entries)):
            mj = entries[j].mbr
            waste = mi.union(mj).area() - area_i - mj.area()
            if waste > worst:
                worst = waste
                seeds = (i, j)
    return seeds


def loop_choose_subtree(node: Node, entry: Entry) -> Entry:
    best = None
    best_key = None
    for child_entry in node.entries:
        enlargement = child_entry.mbr.enlargement(entry.mbr)
        key = (
            enlargement,
            child_entry.mbr.area(),
            len(child_entry.child.entries),
        )
        if best_key is None or key < best_key:
            best_key = key
            best = child_entry
    assert best is not None, "choose_subtree called on an empty node"
    return best


# -- inputs -------------------------------------------------------------------


def quarter(rng: random.Random, dims: int) -> Tuple[float, ...]:
    """A point of the quarter grid on [0, 3]: many ties in area and growth."""
    return tuple(rng.randint(0, 12) / 4 for _ in range(dims))


def continuous(rng: random.Random, dims: int) -> Tuple[float, ...]:
    return tuple(rng.uniform(0.0, 3.0) for _ in range(dims))


DRAWS = {"quarter": quarter, "continuous": continuous}


def leaf_entries(rng, dims, n, draw) -> List[Entry]:
    return [Entry.for_point(draw(rng, dims), i) for i in range(n)]


def box_entries(rng, dims, n, draw) -> List[Entry]:
    """Internal entries: boxes over 1–3 points, children of 1–3 entries."""
    out = []
    for _ in range(n):
        leaves = leaf_entries(rng, dims, rng.randint(1, 3), draw)
        out.append(Entry.for_node(Node(0, leaves)))
    return out


def same_objects(got, want) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


# -- quadratic split ----------------------------------------------------------


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
def test_areas_equal_mbr_area_bit_for_bit(dims):
    rng = random.Random(dims)
    entries = box_entries(rng, dims, 500, continuous)
    low, high = corners(entries)
    assert areas(low, high).tolist() == [e.mbr.area() for e in entries]


SIZES = (2, 3, 4, 5, 6, 9, 17)


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["leaf", "box"])
@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_split_matches_loop(dims, kind, draw):
    rng = random.Random(f"{dims}-{kind}-{draw}")
    build = leaf_entries if kind == "leaf" else box_entries
    for n in SIZES:
        entries = build(rng, dims, n, DRAWS[draw])
        for min_entries in range(1, n // 2 + 1):
            got = quadratic_split(entries, min_entries)
            want = loop_quadratic_split(entries, min_entries)
            assert same_objects(got[0], want[0]), (n, min_entries)
            assert same_objects(got[1], want[1]), (n, min_entries)


@pytest.mark.parametrize(
    "dims, kind, draw",
    [(2, "leaf", "quarter"), (3, "box", "quarter"),
     (4, "leaf", "continuous"), (5, "box", "continuous")],
)
def test_full_node_split_matches_loop(dims, kind, draw):
    """An overflowing node of the default fanout, M + 1 = 33 entries."""
    rng = random.Random(f"full-{dims}-{kind}-{draw}")
    build = leaf_entries if kind == "leaf" else box_entries
    entries = build(rng, dims, 33, DRAWS[draw])
    for min_entries in range(1, 17):
        got = quadratic_split(entries, min_entries)
        want = loop_quadratic_split(entries, min_entries)
        assert same_objects(got[0], want[0]), min_entries
        assert same_objects(got[1], want[1]), min_entries


@pytest.mark.parametrize("max_entries", [4, 5, 8, 16, 32])
def test_split_of_identical_points_matches_loop(max_entries):
    n = max_entries + 1
    entries = [Entry.for_point((0.5, 0.25, 0.75), i) for i in range(n)]
    for min_entries in range(1, n // 2 + 1):
        got = quadratic_split(entries, min_entries)
        want = loop_quadratic_split(entries, min_entries)
        assert same_objects(got[0], want[0])
        assert same_objects(got[1], want[1])


# -- ChooseSubtree ------------------------------------------------------------


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_choose_subtree_matches_loop(dims, draw):
    rng = random.Random(f"choose-{dims}-{draw}")
    for _ in range(150):
        children = box_entries(rng, dims, rng.randint(1, 12), DRAWS[draw])
        if rng.random() < 0.3:  # twin children: only position breaks the tie
            twin = children[0]
            children.append(Entry(twin.mbr, child=Node(0, list(
                twin.child.entries))))
        node = Node(1, children)
        if rng.random() < 0.5:
            entry = Entry.for_point(DRAWS[draw](rng, dims), -1)
        else:
            entry = box_entries(rng, dims, 1, DRAWS[draw])[0]
        assert choose_subtree(node, entry) is loop_choose_subtree(node, entry)


# -- whole trees --------------------------------------------------------------


def shape(node: Node):
    """The subtree under ``node``: levels, entry order, MBRs and records."""
    if node.is_leaf:
        return [(e.mbr.low, e.mbr.high, e.point, e.record_id)
                for e in node.entries]
    return [(node.level, e.mbr.low, e.mbr.high, shape(e.child))
            for e in node.entries]


class LoopTree:
    """An :class:`RTree` whose writes run through the reference loops."""

    def __init__(self, tree: RTree):
        tree._split = loop_quadratic_split
        self.tree = tree

    def apply(self, op, *args):
        with mock.patch.object(
            insert_module, "choose_subtree", loop_choose_subtree
        ):
            return getattr(self.tree, op)(*args)


@pytest.mark.parametrize("max_entries", [4, 5, 8, 16, 32])
@pytest.mark.parametrize("start", ["empty", "bulk"])
def test_insert_delete_streams_build_the_loop_tree(max_entries, start):
    """Mixed inserts and deletes, then a drain that condenses every level."""
    levels = []  # levels of the orphans CondenseTree re-inserted
    reinsert = RTree._reinsert_entry

    def spy(tree, entry, level):
        levels.append(level)
        return reinsert(tree, entry, level)

    with mock.patch.object(RTree, "_reinsert_entry", spy):
        for dims in (2, 3, 4, 5):
            _run_stream(max_entries, start, dims)
    assert levels
    if max_entries <= 8:  # larger fanouts keep these streams at height 2
        assert max(levels) > 0, "no internal entry was re-inserted"


def _run_stream(max_entries, start, dims):
    rng = random.Random(f"{max_entries}-{start}-{dims}")
    draw = DRAWS["quarter" if dims % 2 else "continuous"]
    live = [(draw(rng, dims), i) for i in range(max(80, 3 * max_entries))]
    if start == "bulk":
        points = [p for p, _ in live]
        fast = RTree.bulk_load(points, max_entries=max_entries)
        slow = LoopTree(RTree.bulk_load(points, max_entries=max_entries))
    else:
        fast = RTree(dims, max_entries=max_entries)
        slow = LoopTree(RTree(dims, max_entries=max_entries))
        for p, rid in live:
            fast.insert(p, rid)
            slow.apply("insert", p, rid)

    def delete():
        p, rid = live.pop(rng.randrange(len(live)))
        assert fast.delete(p, rid)
        assert slow.apply("delete", p, rid)

    next_id = len(live)
    for _ in range(60):
        if rng.random() < 0.45:
            delete()
        else:
            p = draw(rng, dims)
            live.append((p, next_id))
            fast.insert(p, next_id)
            slow.apply("insert", p, next_id)
            next_id += 1
    assert shape(fast.root) == shape(slow.tree.root)
    validate_rtree(fast, check_fill=start == "empty")
    while len(live) > 3:
        delete()
    assert shape(fast.root) == shape(slow.tree.root)
    validate_rtree(fast, check_fill=start == "empty")
