"""Structural invariant checking for R-trees.

Used heavily by the test suite (including the hypothesis property tests over
random insert/delete workloads).  Checks, for every node:

* entry MBRs are contained in (and tight against) the parent entry's MBR;
* leaf entries carry points, internal entries carry children one level down;
* node occupancy respects ``[min_entries, max_entries]`` (root excepted);
* all leaves sit at level 0 and the point count matches ``len(tree)``.
"""

from __future__ import annotations

from repro.exceptions import RTreeError
from repro.geometry.mbr import MBR
from repro.rtree.node import Node
from repro.rtree.tree import RTree


def validate_rtree(tree: RTree, check_fill: bool = True) -> None:
    """Raise :class:`RTreeError` on any violated structural invariant.

    Args:
        tree: the tree to check.
        check_fill: also enforce minimum node occupancy.  Pass ``False`` for
            bulk-loaded trees — STR tiling legitimately leaves one underfull
            remainder node per level.
    """
    if tree.is_empty():
        if tree.root.level != 0 or tree.root.entries:
            raise RTreeError("empty tree must have a bare leaf root")
        return
    points_seen = _validate_node(
        tree.root, tree.max_entries, tree.min_entries if check_fill else 0,
        is_root=True,
    )
    if points_seen != len(tree):
        raise RTreeError(
            f"tree reports {len(tree)} points but traversal found "
            f"{points_seen}"
        )


def _validate_node(
    node: Node,
    max_entries: int,
    min_entries: int,
    is_root: bool,
) -> int:
    if not node.entries:
        raise RTreeError(f"empty non-root node at level {node.level}")
    if len(node.entries) > max_entries:
        raise RTreeError(
            f"node at level {node.level} holds {len(node.entries)} entries "
            f"(max {max_entries})"
        )
    if not is_root and min_entries and len(node.entries) < min_entries:
        raise RTreeError(
            f"node at level {node.level} holds {len(node.entries)} entries "
            f"(min {min_entries})"
        )
    if is_root and not node.is_leaf and len(node.entries) < 2:
        raise RTreeError("internal root must have at least two entries")

    if node.is_leaf:
        for e in node.entries:
            point = e.point
            if point is None:
                raise RTreeError("leaf node contains a non-leaf entry")
            mbr = e.mbr
            if mbr.low != point or mbr.high != point:
                raise RTreeError(
                    f"leaf entry MBR {e.mbr} does not match point {e.point}"
                )
        return len(node.entries)

    points = 0
    for e in node.entries:
        if e.is_leaf_entry:
            raise RTreeError("internal node contains a point entry")
        child = e.child
        if child.level != node.level - 1:
            raise RTreeError(
                f"level skew: node level {node.level} has child at "
                f"level {child.level}"
            )
        # The child's tight MBR without building one: per-dimension
        # min/max over its entries' corners, each dimension one C pass.
        low = tuple(map(min, zip(*[c.mbr.low for c in child.entries])))
        high = tuple(map(max, zip(*[c.mbr.high for c in child.entries])))
        if e.mbr.low != low or e.mbr.high != high:
            raise RTreeError(
                f"stale entry MBR at level {node.level}: "
                f"cached {e.mbr}, actual {MBR(low, high)}"
            )
        points += _validate_node(child, max_entries, min_entries, False)
    return points
