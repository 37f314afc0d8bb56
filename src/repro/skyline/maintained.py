"""The competitor skyline, kept current across catalog mutations.

Algorithm 3 (:mod:`repro.core.dominators`) answers one product at a time
with a best-first traversal of the competitor R-tree.  A serving session
answers many products against one slowly changing market, and every
answer is a subset of one set it can keep:

    **Lemma.**  Let ``D_t`` be the competitors that dominate ``t``.  Then
    ``sky(D_t) = D_t ∩ sky(P)``.

    *Proof.*  ``D_t`` is downward closed: if ``q ≺ p`` and ``p ≺ t`` then
    ``q ≺ t``, so every dominator of a point of ``D_t`` is in ``D_t``.  A
    point of ``D_t`` is therefore dominated within ``D_t`` iff it is
    dominated within ``P``.

So a product's dominator skyline is the rows of ``sky(P)`` that dominate
it — one broadcast instead of one traversal.  :class:`SkylineSnapshot`
holds ``sky(P)`` as one immutable version (points, their coordinate
sums, and the ``(n, d)`` array) in the traversal's canonical
``(coordinate sum, point)`` order, and derives the next version from a
mutation:

* **add p** — if some skyline point dominates or equals ``p``, nothing
  changes; otherwise the points ``p`` dominates leave and ``p`` enters
  at its canonical position;
* **remove r** — if ``r`` is not a skyline point, nothing changes;
  otherwise only points of ``r``'s dominance region ``{q >= r}`` can
  join (anything ``r`` did not dominate was already dominated by another
  skyline point, which is still there), so :func:`bbs_regrow` searches
  that region with the rest of the skyline as pruners.  A remaining copy
  of ``r`` re-enters through the regrow.

The owner publishes each version with one reference swap, so a reader
never sees half of an update.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.instrumentation import Counters
from repro.kernels.dominance import dominating_mask
from repro.reliability.faults import maybe_corrupt
from repro.rtree.tree import RTree
from repro.skyline.bbs import bbs_regrow, bbs_skyline

Point = Tuple[float, ...]


class SkylineSnapshot:
    """One immutable version of a point set's skyline.

    Attributes:
        points: the skyline in ascending ``(coordinate sum, point)`` order,
            one copy per distinct point.
        sums: ``sum(p)`` of each point, in the same order.
        array: the points as a read-only ``(n, d)`` float64 array.
    """

    __slots__ = ("points", "sums", "array")

    def __init__(
        self, points: Tuple[Point, ...], sums: List[float], array: np.ndarray
    ):
        array.flags.writeable = False
        self.points = points
        self.sums = sums
        self.array = array

    @classmethod
    def of(cls, points: Sequence[Point], dims: int) -> "SkylineSnapshot":
        """A snapshot of ``points`` (already a skyline, canonical order)."""
        points = tuple(points)
        array = np.array(points, dtype=np.float64).reshape(len(points), dims)
        return cls(points, [sum(p) for p in points], array)

    @classmethod
    def build(cls, tree: RTree) -> "SkylineSnapshot":
        """The skyline of every point indexed by ``tree`` (one BBS)."""
        return cls.of(bbs_skyline(tree), tree.dims)

    def with_point(self, p: Point) -> "SkylineSnapshot":
        """The skyline after ``p`` joins the set (``self`` if unchanged)."""
        rows = self.array
        row = np.asarray(p, dtype=np.float64)
        if (rows <= row).all(axis=1).any():
            return self
        # No row is weakly below p, so a row weakly above p is not p
        # itself: p dominates it.
        keep = ~(rows >= row).all(axis=1)
        kept = np.flatnonzero(keep).tolist()
        points = [self.points[j] for j in kept]
        sums = [self.sums[j] for j in kept]
        total = sum(p)
        i = bisect_left(sums, total)
        while i < len(points) and sums[i] == total and points[i] < p:
            i += 1
        points.insert(i, p)
        sums.insert(i, total)
        return SkylineSnapshot(
            tuple(points), sums, np.insert(rows[keep], i, row, axis=0)
        )

    def without_point(self, r: Point, tree: RTree) -> "SkylineSnapshot":
        """The skyline after one copy of ``r`` leaves the set.

        ``tree`` is the index *after* the removal; only ``r``'s dominance
        region is searched (``self`` if ``r`` was not a skyline point).
        """
        hits = np.flatnonzero(
            (self.array == np.asarray(r, dtype=np.float64)).all(axis=1)
        )
        if not hits.size:
            return self
        i = int(hits[0])
        rest = self.points[:i] + self.points[i + 1:]
        grown = bbs_regrow(tree, r, rest)
        # Every regrown point is weakly above r, so it sorts after r's
        # old position: only the tail needs merging.
        points = list(rest[:i])
        points.extend(
            heapq.merge(rest[i:], grown, key=lambda p: (sum(p), p))
        )
        return SkylineSnapshot.of(points, self.array.shape[1])

    def dominators(
        self, t: Point, stats: Optional[Counters] = None
    ) -> List[Point]:
        """The skyline points that dominate ``t``, in canonical order.

        A dominator's coordinate sum is at most ``sum(t)`` (floating-point
        addition is monotone, and a dominator's sum can tie ``t``'s), so
        only that prefix is tested.  The verdicts pass through the
        ``kernels.dominance`` corruption point; the traversal of
        :mod:`repro.core.dominators` stays the scalar oracle.  Charges the
        rows tested as dominance tests and the answer as skyline points.
        """
        n = bisect_right(self.sums, sum(t))
        if n:
            mask = dominating_mask(self.array[:n], t)
            mask = maybe_corrupt("kernels.dominance", mask, np.logical_not)
            points = self.points
            result = [points[i] for i in np.flatnonzero(mask).tolist()]
        else:
            result = []
        if stats is not None:
            stats.dominance_tests += n
            stats.skyline_points += len(result)
        return result
