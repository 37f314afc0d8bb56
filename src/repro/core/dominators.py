"""Algorithm 3: ``getDominatingSky`` — skyline-of-dominators queries.

The improved probing algorithm replaces the basic range-query-then-skyline
pipeline with a single best-first traversal restricted to the anti-dominant
region ``ADR(t)``: R-tree entries are popped in ascending *mindist*
(coordinate sum of the lower corner), entries whose lower corner is
dominated by an already-found skyline point are pruned, and leaf points are
accepted only if they strictly dominate ``t`` and are themselves
undominated.  This adapts BBS (Papadias et al.) exactly as the paper
describes.

:func:`get_dominating_skyline_multi` generalizes the traversal to a list of
subtree roots — the join algorithm computes a leaf product's exact cost from
its join-list entries this way.

**Downward closure.**  The dominators ``D_t`` of ``t`` satisfy
``sky(D_t) = D_t ∩ sky(P)``.  Proof: if ``q ≺ p`` and ``p ≺ t`` then
``q ≺ t``, so a point of ``D_t`` is dominated within ``D_t`` iff it is
dominated within ``P``.  The serving session uses this to answer kernel-path
product queries by filtering a maintained ``sky(P)``
(:meth:`repro.core.session.MarketSession.dominator_skyline`); this traversal
stays the scalar oracle its kernel guard reruns, and the paper's Algorithm 3.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.geometry.point import dominates
from repro.geometry.region import mbr_overlaps_adr, point_in_adr
from repro.instrumentation import Counters
from repro.kernels.skybuffer import SkylineBuffer
from repro.kernels.switch import kernels_enabled
from repro.obs import NOOP_SPAN, span
from repro.reliability.faults import maybe_inject
from repro.rtree.entry import Entry
from repro.rtree.tree import RTree

Point = Tuple[float, ...]


def get_dominating_skyline(
    tree: RTree,
    product: Sequence[float],
    stats: Optional[Counters] = None,
) -> List[Point]:
    """Return the skyline of ``product``'s dominators in ``tree``.

    Args:
        tree: the competitor R-tree ``R_P``.
        product: the query point ``t``.
        stats: optional counters.

    Returns:
        Skyline points (each strictly dominates ``product``) in ascending
        coordinate-sum order.
    """
    if tree.is_empty():
        return []
    return get_dominating_skyline_multi(
        [tree.root_entry()], product, stats
    )


def get_dominating_skyline_multi(
    roots: Iterable[Entry],
    product: Sequence[float],
    stats: Optional[Counters] = None,
) -> List[Point]:
    """Skyline of ``product``'s dominators under several subtree roots.

    The roots may be internal entries, leaf entries (single points), or a
    mix — exactly what a join list contains.  Duplicate coverage is allowed;
    dominance filtering removes any resulting duplicates' effect (equal
    points never dominate each other and at most one copy enters the
    skyline).

    Args:
        roots: R-tree entries whose subtrees to search.
        product: the query point ``t``.
        stats: optional counters.
    """
    maybe_inject("rtree.query")
    with span(
        "dominators.skyline",
        kernel_or_scalar="kernel" if kernels_enabled() else "scalar",
    ) as sp:
        if stats is not None:
            label = (
                "kernel.dominators"
                if kernels_enabled()
                else "scalar.dominators"
            )
            with stats.timed(label):
                result = _traverse(roots, product, stats)
        else:
            result = _traverse(roots, product, stats)
        sp.set(skyline_size=len(result))
        return result


def _traverse(
    roots: Iterable[Entry],
    product: Sequence[float],
    stats: Optional[Counters],
) -> List[Point]:
    t = tuple(float(v) for v in product)
    skyline = SkylineBuffer(len(t))
    seen: set = set()
    counter = itertools.count()
    heap: List[tuple] = []

    # Heap keys are (coordinate sum, corner, seq): the sum drives the
    # best-first order, and the lexicographic corner tie-break keeps
    # dominators ahead of dominated candidates even when their sums
    # collide in floating point (a dominator is always lexicographically
    # smaller, exactly).
    for entry in roots:
        if mbr_overlaps_adr(entry.mbr, t):
            low = entry.mbr.low
            heapq.heappush(
                heap, (sum(low), low, next(counter), entry)
            )
            if stats is not None:
                stats.heap_pushes += 1

    # The heap loop is the index traversal proper; its span reports the
    # R-tree work (node accesses, heap pops) as counter deltas so a trace
    # attributes index cost per call, not cumulatively.
    scan = span("rtree.scan")
    if scan is not NOOP_SPAN and stats is not None:
        base_nodes = stats.node_accesses
        base_pops = stats.heap_pops
    scan.__enter__()

    while heap:
        _, _, _, item = heapq.heappop(heap)
        if stats is not None:
            stats.heap_pops += 1

        if isinstance(item, tuple):  # a finalized candidate point
            if item in seen:
                continue
            if not skyline.dominates_point(item, stats):
                skyline.add(item)
                seen.add(item)
            continue

        entry = item
        if skyline.dominates_point(entry.mbr.low, stats):
            if stats is not None:
                stats.entries_pruned += 1
            continue
        if entry.is_leaf_entry:
            point = entry.point
            if stats is not None:
                stats.points_scanned += 1
            if dominates(point, t) and not skyline.dominates_point(
                point, stats
            ):
                heapq.heappush(
                    heap, (sum(point), point, next(counter), point)
                )
                if stats is not None:
                    stats.heap_pushes += 1
            continue
        node = entry.child
        if stats is not None:
            stats.node_accesses += 1
        for child in node.entries:
            if not mbr_overlaps_adr(child.mbr, t):
                continue
            low = child.mbr.low
            if skyline.dominates_point(low, stats):
                if stats is not None:
                    stats.entries_pruned += 1
                continue
            heapq.heappush(heap, (sum(low), low, next(counter), child))
            if stats is not None:
                stats.heap_pushes += 1

    scan.close()
    if scan is not NOOP_SPAN and stats is not None:
        scan.set(
            node_accesses=stats.node_accesses - base_nodes,
            heap_pops=stats.heap_pops - base_pops,
        )
    if stats is not None:
        stats.skyline_points += len(skyline)
    return skyline.points


def merge_skylines(
    skylines: Sequence[Sequence[Point]],
) -> List[Point]:
    """Merge per-shard dominator skylines into the global skyline.

    The sharded engine's gather step: each shard computes the skyline of
    the query point's dominators within its own partition; the global
    dominator skyline is the set of maximal elements of their union.
    The merge is associative, so a worker hosting several shards can
    pre-merge locally and the coordinator merges across workers.

    Output reproduces :func:`get_dominating_skyline`'s canonical order
    exactly — ascending ``(coordinate sum, lexicographic point)``, one
    copy per distinct point — so downstream ``upgrade()`` calls are
    bit-identical to a single-process traversal (Algorithm 1's slotting
    candidates depend on the input order at sort ties).
    """
    seen: set = set()
    union: List[Point] = []
    for skyline in skylines:
        for p in skyline:
            q = tuple(p)
            if q not in seen:
                seen.add(q)
                union.append(q)
    if len(union) <= 1:
        return union
    return canonical_order(
        p
        for p in union
        if not any(q is not p and dominates(q, p) for q in union)
    )


def canonical_order(points: Iterable[Sequence[float]]) -> List[Point]:
    """One copy of each point, ascending ``(coordinate sum, point)``.

    The order :func:`get_dominating_skyline` returns a skyline in: its
    best-first traversal pops points by that key and skips repeats.
    """
    return sorted(set(map(tuple, points)), key=lambda p: (sum(p), p))


def dominators_brute_force(
    points: Iterable[Sequence[float]],
    product: Sequence[float],
) -> List[Point]:
    """Return every point of ``points`` dominating ``product`` (test oracle)."""
    t = tuple(float(v) for v in product)
    return [
        tuple(float(v) for v in p)
        for p in points
        if point_in_adr(p, t) and dominates(p, t)
    ]


