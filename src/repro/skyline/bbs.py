"""Branch-and-Bound Skyline over an R-tree (Papadias et al., SIGMOD 2003).

BBS pops R-tree entries from a min-heap keyed by *mindist* (the coordinate
sum of the entry MBR's lower corner).  Because mindist is a monotone lower
bound of every point inside the entry, a popped point that is not dominated
by the current skyline is guaranteed final.  Entries whose lower corner is
dominated by an existing skyline point are pruned wholesale.

The dominated-by-current-skyline test — the inner loop of the whole
traversal — runs on the columnar
:class:`~repro.kernels.skybuffer.SkylineBuffer`: one numpy broadcast per
candidate when kernels are enabled, the exact scalar loop otherwise.

This module is the foundation of the paper's Algorithm 3
(:mod:`repro.core.dominators` restricts the same traversal to an
anti-dominant region).  :func:`bbs_regrow` restricts it the other way, to
a dominance region ``{q >= floor}``: after a skyline point leaves the
market, only points in its dominance region can join the skyline, so the
serving session regrows that region instead of recomputing the whole
skyline (:mod:`repro.skyline.maintained`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Sequence, Tuple

from repro.instrumentation import Counters
from repro.kernels.skybuffer import SkylineBuffer
from repro.kernels.switch import kernels_enabled
from repro.obs import span
from repro.rtree.tree import RTree

Point = Tuple[float, ...]


def bbs_skyline(
    tree: RTree,
    stats: Optional[Counters] = None,
) -> List[Point]:
    """Return the skyline of every point indexed by ``tree``.

    Args:
        tree: R-tree over the point set (smaller-is-better on all dims).
        stats: optional counters — node accesses, heap traffic, dominance
            tests.

    Returns:
        Skyline points in ascending mindist (coordinate-sum) order, which is
        also the order BBS proves them final.
    """
    if tree.is_empty():
        return []
    with span(
        "skyline.bbs",
        kernel_or_scalar="kernel" if kernels_enabled() else "scalar",
    ) as sp:
        if stats is not None:
            label = "kernel.bbs" if kernels_enabled() else "scalar.bbs"
            with stats.timed(label):
                result = _bbs(tree, stats)
        else:
            result = _bbs(tree, stats)
        sp.set(skyline_size=len(result))
        return result


def bbs_regrow(
    tree: RTree,
    floor: Sequence[float],
    pruners: Sequence[Point],
    stats: Optional[Counters] = None,
) -> List[Point]:
    """Skyline points of ``tree`` inside the region ``{q >= floor}``.

    The same traversal as :func:`bbs_skyline`, restricted to entries
    whose upper corner is weakly above ``floor`` (on every dimension),
    with each entry's corner clamped up to ``floor`` — the lower corner
    of the entry's part of the region, so mindist and the corner prune
    stay exact for the points the region holds.  ``pruners`` seed the
    skyline buffer: a region point dominated by one of them is not
    returned, and neither is a copy of one of them.

    Returns:
        The new skyline points (``pruners`` excluded) in ascending
        ``(coordinate sum, point)`` order.
    """
    if tree.is_empty():
        return []
    low = tuple(float(v) for v in floor)
    with span(
        "skyline.bbs",
        kernel_or_scalar="kernel" if kernels_enabled() else "scalar",
        regrow=True,
    ) as sp:
        result = _bbs(tree, stats, low, pruners)
        sp.set(skyline_size=len(result))
        return result


def _weakly_above(corner: Point, floor: Point) -> bool:
    for c, f in zip(corner, floor):
        if c < f:
            return False
    return True


def _bbs(
    tree: RTree,
    stats: Optional[Counters],
    floor: Optional[Point] = None,
    pruners: Sequence[Point] = (),
) -> List[Point]:
    skyline = SkylineBuffer(tree.dims, pruners)
    accepted = set(pruners)
    counter = itertools.count()
    heap: List[tuple] = []
    root = tree.root
    # Keys are (mindist, corner, seq): the lexicographic corner tie-break
    # keeps dominators ahead of dominated candidates even when coordinate
    # sums collide in floating point (a dominator is always
    # lexicographically smaller, exactly).
    root_mbr = root.compute_mbr()
    root_low = root_mbr.low
    if floor is not None:
        if not _weakly_above(root_mbr.high, floor):
            return []
        root_low = tuple(map(max, root_low, floor))
    heapq.heappush(heap, (0.0, root_low, next(counter), root))
    if stats is not None:
        stats.heap_pushes += 1

    while heap:
        _, corner, _, node = heapq.heappop(heap)
        if stats is not None:
            stats.heap_pops += 1
        # Re-check at pop: the skyline may have grown since the push.
        if skyline.dominates_point(corner, stats):
            if stats is not None:
                stats.entries_pruned += 1
            continue
        if node is None:  # a point candidate, proven final by pop order
            if corner not in accepted:
                accepted.add(corner)
                skyline.add(corner)
            continue
        if stats is not None:
            stats.node_accesses += 1
        if node.is_leaf:
            for e in node.entries:
                if floor is not None and not _weakly_above(e.point, floor):
                    continue
                if not skyline.dominates_point(e.point, stats):
                    heapq.heappush(
                        heap, (sum(e.point), e.point, next(counter), None)
                    )
                    if stats is not None:
                        stats.heap_pushes += 1
        else:
            for e in node.entries:
                low = e.mbr.low
                if floor is not None:
                    if not _weakly_above(e.mbr.high, floor):
                        continue
                    low = tuple(map(max, low, floor))
                if not skyline.dominates_point(low, stats):
                    heapq.heappush(
                        heap, (sum(low), low, next(counter), e.child)
                    )
                    if stats is not None:
                        stats.heap_pushes += 1
                elif stats is not None:
                    stats.entries_pruned += 1
    found = skyline.points[len(pruners):]
    if stats is not None:
        stats.skyline_points += len(found)
    return found
