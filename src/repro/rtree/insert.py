"""Dynamic insertion (Guttman's ChooseLeaf / AdjustTree).

The implementation is recursive: ``insert_into`` descends to the correct
level, appends the new entry, and propagates splits upward by returning the
split-off sibling (or ``None``).  :class:`repro.rtree.tree.RTree` handles
root splits.  ChooseSubtree scores all children of a node in one broadcast
over their corner arrays (see :mod:`repro.rtree.split`); every tie falls
to the first child in node order, as in Guttman's per-child loop (the
reference in ``tests/test_rtree_split_reference.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.split import SplitFunction, areas, corners


def choose_subtree(node: Node, entry: Entry) -> Entry:
    """Pick the child entry of ``node`` best suited to absorb ``entry``.

    Guttman's criterion: least area enlargement, ties broken by smallest
    area, then by fewest entries in the child, then by position.  One
    broadcast over the children's corner arrays and a stable
    lexicographic sort pick it.
    """
    children = node.entries
    assert children, "choose_subtree called on an empty node"
    low, high = corners(children)
    area = areas(low, high)
    enlargement = areas(
        np.minimum(low, entry.mbr.low), np.maximum(high, entry.mbr.high)
    ) - area
    count = [len(c.child.entries) for c in children]
    return children[np.lexsort((count, area, enlargement))[0]]


def insert_into(
    node: Node,
    entry: Entry,
    target_level: int,
    max_entries: int,
    min_entries: int,
    split: SplitFunction,
) -> Optional[Node]:
    """Insert ``entry`` at ``target_level`` under ``node``.

    Returns:
        The split-off sibling node if ``node`` overflowed, else ``None``.
        The caller is responsible for re-tightening its entry for ``node``
        and for housing the sibling.
    """
    if node.level == target_level:
        node.entries.append(entry)
    else:
        child_entry = choose_subtree(node, entry)
        sibling = insert_into(
            child_entry.child,
            entry,
            target_level,
            max_entries,
            min_entries,
            split,
        )
        child_entry.tighten()
        if sibling is not None:
            node.entries.append(Entry.for_node(sibling))

    if len(node.entries) > max_entries:
        group_a, group_b = split(node.entries, min_entries)
        node.entries = group_a
        return Node(node.level, group_b)
    return None
