"""Array-backed incremental skyline maintenance.

BBS-style traversals (:mod:`repro.skyline.bbs`, Algorithm 3 in
:mod:`repro.core.dominators`) test thousands of candidate corners against
the skyline found so far.  :class:`SkylineBuffer` keeps the growing skyline
in a columnar block so the is-dominated test is one broadcast; beyond a few
dozen points that beats the per-point Python loop by two orders of
magnitude.  With kernels disabled (:func:`repro.kernels.switch`), the exact
scalar loop runs instead — same answers, pure-Python work.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import dominates
from repro.instrumentation import Counters
from repro.kernels.block import PointBlock
from repro.kernels.switch import kernels_enabled
from repro.reliability.faults import maybe_corrupt

Point = Tuple[float, ...]


class SkylineBuffer:
    """A growing skyline with a batch is-dominated test.

    Points are appended only after the caller has proven them undominated
    (the BBS pop-order argument); the buffer never removes points.  The
    columnar copy grows geometrically to amortize reallocation.

    Counter contract: :meth:`dominates_point` charges ``len(self)``
    dominance tests per call on *both* paths — the kernel evaluates all of
    them at once and the scalar loop may exit early, but the work counter
    stays path-independent so kernel and scalar runs report identical
    scale-free counters.
    """

    #: Below this size the scalar loop beats a numpy dispatch.
    _VECTOR_FROM = 32

    #: Scalar prefix scanned before the broadcast.  BBS pops candidates in
    #: ascending mindist, so a dominated candidate is almost always caught
    #: by one of the *earliest* (lowest coordinate-sum) skyline points —
    #: the prefix keeps that common case at scalar cost and the broadcast
    #: pays off exactly when the whole buffer must be scanned anyway.
    _PREFIX = 8

    __slots__ = ("points", "_block")

    def __init__(self, dims: int, points: Sequence[Point] = ()):
        """An empty buffer, or one seeded with an (undominated) antichain."""
        self.points: List[Point] = list(points)
        self._block = (
            PointBlock.from_points(self.points)
            if self.points
            else PointBlock(dims)
        )

    def __len__(self) -> int:
        return len(self.points)

    def add(self, point: Point) -> None:
        """Append an (already verified undominated) skyline point."""
        self._block.append(point)
        self.points.append(point)

    def as_array(self) -> np.ndarray:
        """The live ``(n, d)`` view of the skyline (block lifetime rules)."""
        return self._block.data

    def dominates_point(
        self, p: Sequence[float], stats: Optional[Counters] = None
    ) -> bool:
        """True iff some stored skyline point dominates ``p``."""
        n = len(self.points)
        if stats is not None:
            stats.dominance_tests += n
        if n == 0:
            return False
        if n < self._VECTOR_FROM or not kernels_enabled():
            for s in self.points:
                if dominates(s, p):
                    return True
            return False
        for s in self.points[: self._PREFIX]:
            if dominates(s, p):
                return True
        rows = self._block.data[self._PREFIX :]
        row = np.asarray(p, dtype=np.float64)
        weak = (rows <= row).all(axis=1)
        if not weak.any():
            verdict = False
        else:
            verdict = bool((rows[weak] < row).any())
        # Chaos hook: the `kernels.dominance` corruption point flips this
        # broadcast verdict only — the scalar loop above stays the oracle.
        return bool(
            maybe_corrupt("kernels.dominance", verdict, lambda v: not v)
        )
