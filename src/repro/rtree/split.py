"""Node splitting strategies for dynamic insertion (Guttman 1984).

When an insertion overflows a node beyond its capacity ``M``, the node's
``M + 1`` entries are redistributed into two nodes, each holding at least
``m`` entries.  Two classic strategies are provided:

* **quadratic** — pick the pair of entries whose combined MBR wastes the
  most area as seeds, then assign remaining entries to the group whose MBR
  grows least (ties by area, then by count);
* **linear** — pick seeds by the greatest normalized separation along any
  dimension, then assign the rest in arbitrary order by least enlargement.

Quadratic is the library default (better trees, still cheap at the fanouts
used here); linear and the R* split are kept for the fanout/split ablation
benchmark.

The quadratic split is the hot write path of a dynamic market (every
competitor insert into a full node runs it), so it works on the node's
corner arrays (:func:`corners`) instead of per-pair :class:`MBR` objects:
PickSeeds is one ``(n, n, d)`` broadcast and PickNext updates one growth
vector per group.  It makes exactly the decisions of Guttman's per-entry
loops (kept in ``tests/test_rtree_split_reference.py`` as the reference):
areas are side products taken left to right as :meth:`MBR.area` takes
them (:func:`areas`), and every tie falls to the first candidate in loop
order.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geometry.mbr import MBR
from repro.rtree.entry import Entry

SplitFunction = Callable[[List[Entry], int], Tuple[List[Entry], List[Entry]]]


def quadratic_split(
    entries: List[Entry], min_entries: int
) -> Tuple[List[Entry], List[Entry]]:
    """Guttman's quadratic split.

    PickSeeds is one ``(n, n, d)`` broadcast.  PickNext keeps one growth
    vector per group over all ``n`` entries and recomputes only the
    vector of the group that just grew; it assigns the waiting entry
    with the first-largest ``|grow_a - grow_b|`` (waiting entries in
    their input order), to the group that grows less, ties broken by
    smaller area, then by fewer entries.

    Args:
        entries: the overflowing entry list (length ``M + 1``).
        min_entries: minimum number of entries per resulting node.

    Returns:
        Two disjoint entry lists, each with at least ``min_entries`` items.
    """
    _check_split_args(entries, min_entries)
    low, high = corners(entries)
    seeds = _pick_seeds_quadratic(low, high)
    # Per group g (0 = A, 1 = B): members, MBR corners, area, and the
    # enlargement it would need to cover each of the n entries.
    groups = tuple([entries[s]] for s in seeds)
    g_low = [low[s] for s in seeds]
    g_high = [high[s] for s in seeds]
    g_area = [areas(low[s], high[s]) for s in seeds]
    grow = [
        _growth(g_low[g], g_high[g], g_area[g], low, high) for g in (0, 1)
    ]
    waiting = np.ones(len(entries), dtype=bool)
    waiting[list(seeds)] = False
    left = len(entries) - 2

    while left:
        # If one group must take everything left to reach the minimum, do so.
        starved = [g for g in (0, 1) if len(groups[g]) + left == min_entries]
        if starved:
            groups[starved[0]].extend(
                entries[i] for i in np.flatnonzero(waiting)
            )
            break
        # Pick the entry with the strongest preference for one group.
        preference = np.where(waiting, np.abs(grow[0] - grow[1]), -1.0)
        pick = int(np.argmax(preference))
        waiting[pick] = False
        left -= 1
        grow_a, grow_b = grow[0][pick], grow[1][pick]
        if grow_a != grow_b:
            g = 0 if grow_a < grow_b else 1
        elif g_area[0] != g_area[1]:
            g = 0 if g_area[0] < g_area[1] else 1
        else:
            g = 0 if len(groups[0]) <= len(groups[1]) else 1
        groups[g].append(entries[pick])
        g_low[g] = np.minimum(g_low[g], low[pick])
        g_high[g] = np.maximum(g_high[g], high[pick])
        g_area[g] = areas(g_low[g], g_high[g])
        grow[g] = _growth(g_low[g], g_high[g], g_area[g], low, high)
    return groups


def linear_split(
    entries: List[Entry], min_entries: int
) -> Tuple[List[Entry], List[Entry]]:
    """Guttman's linear split (cheaper seed selection, looser groups)."""
    _check_split_args(entries, min_entries)
    seed_a, seed_b = _pick_seeds_linear(entries)
    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    mbr_a = entries[seed_a].mbr
    mbr_b = entries[seed_b].mbr
    remaining = [
        e for i, e in enumerate(entries) if i != seed_a and i != seed_b
    ]
    for i, entry in enumerate(remaining):
        left = len(remaining) - i
        if len(group_a) + left == min_entries:
            group_a.extend(remaining[i:])
            return group_a, group_b
        if len(group_b) + left == min_entries:
            group_b.extend(remaining[i:])
            return group_a, group_b
        grow_a = mbr_a.enlargement(entry.mbr)
        grow_b = mbr_b.enlargement(entry.mbr)
        if grow_a < grow_b or (grow_a == grow_b and len(group_a) <= len(group_b)):
            group_a.append(entry)
            mbr_a = mbr_a.union(entry.mbr)
        else:
            group_b.append(entry)
            mbr_b = mbr_b.union(entry.mbr)
    return group_a, group_b


def rstar_split(
    entries: List[Entry], min_entries: int
) -> Tuple[List[Entry], List[Entry]]:
    """The R*-tree topological split (Beckmann et al., 1990), sans reinsertion.

    Chooses the split *axis* by minimum total margin over all candidate
    distributions, then the split *index* on that axis by minimum overlap
    between the two groups (ties by minimum combined area).  Produces
    tighter, less overlapping siblings than Guttman's heuristics at a
    modestly higher split cost; benchmarked in the R-tree ablation.
    """
    _check_split_args(entries, min_entries)
    dims = entries[0].mbr.dims
    best_axis = 0
    best_margin = float("inf")
    for axis in range(dims):
        margin = 0.0
        for ordered in _axis_orderings(entries, axis):
            for split_at in _candidate_indices(len(entries), min_entries):
                left = MBR.union_all(e.mbr for e in ordered[:split_at])
                right = MBR.union_all(e.mbr for e in ordered[split_at:])
                margin += left.margin() + right.margin()
        if margin < best_margin:
            best_margin = margin
            best_axis = axis

    best_key = None
    best_groups: Tuple[List[Entry], List[Entry]] = ([], [])
    for ordered in _axis_orderings(entries, best_axis):
        for split_at in _candidate_indices(len(entries), min_entries):
            group_a = ordered[:split_at]
            group_b = ordered[split_at:]
            mbr_a = MBR.union_all(e.mbr for e in group_a)
            mbr_b = MBR.union_all(e.mbr for e in group_b)
            key = (mbr_a.overlap_area(mbr_b), mbr_a.area() + mbr_b.area())
            if best_key is None or key < best_key:
                best_key = key
                best_groups = (list(group_a), list(group_b))
    return best_groups


def _axis_orderings(entries: List[Entry], axis: int):
    """Yield the by-lower and by-upper orderings along ``axis``."""
    yield sorted(entries, key=lambda e: (e.mbr.low[axis], e.mbr.high[axis]))
    yield sorted(entries, key=lambda e: (e.mbr.high[axis], e.mbr.low[axis]))


def _candidate_indices(total: int, min_entries: int) -> range:
    """Valid split positions keeping both groups at/above the minimum."""
    return range(min_entries, total - min_entries + 1)


SPLIT_FUNCTIONS = {
    "quadratic": quadratic_split,
    "linear": linear_split,
    "rstar": rstar_split,
}


def get_split_function(name: str) -> SplitFunction:
    """Look up a split strategy by name (``"quadratic"`` or ``"linear"``)."""
    try:
        return SPLIT_FUNCTIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown split strategy {name!r}; "
            f"choose from {sorted(SPLIT_FUNCTIONS)}"
        ) from None


def corners(entries: List[Entry]) -> Tuple[np.ndarray, np.ndarray]:
    """The entries' MBR corners as two ``(n, d)`` float64 arrays."""
    return (
        np.array([e.mbr.low for e in entries], dtype=np.float64),
        np.array([e.mbr.high for e in entries], dtype=np.float64),
    )


def areas(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Hyper-volume of each box along the last axis.

    The side lengths are multiplied left to right, the order of
    :meth:`MBR.area`, so every area equals the scalar one bit for bit.
    """
    sides = high - low
    result = sides[..., 0]
    for k in range(1, sides.shape[-1]):
        result = result * sides[..., k]
    return result


def _growth(
    low_g: np.ndarray,
    high_g: np.ndarray,
    area_g: float,
    low: np.ndarray,
    high: np.ndarray,
) -> np.ndarray:
    """Area enlargement of the box ``[low_g, high_g]`` to cover each entry."""
    return areas(np.minimum(low_g, low), np.maximum(high_g, high)) - area_g


def _check_split_args(entries: List[Entry], min_entries: int) -> None:
    if min_entries < 1:
        raise ConfigurationError(f"min_entries must be >= 1: {min_entries}")
    if len(entries) < 2 * min_entries:
        raise ConfigurationError(
            f"cannot split {len(entries)} entries into two groups of "
            f">= {min_entries}"
        )


def _pick_seeds_quadratic(
    low: np.ndarray, high: np.ndarray
) -> Tuple[int, int]:
    """Return the index pair whose combined MBR wastes the most area.

    The first maximum of the strict upper triangle in row-major order,
    i.e. the first pair ``(i, j)``, ``i < j``, in loop order.  Wastes are
    negative when boxes overlap; the most wasteful pair is taken however
    negative its waste is.
    """
    area = areas(low, high)
    n = len(area)
    union = areas(
        np.minimum(low[:, None], low[None]),
        np.maximum(high[:, None], high[None]),
    )
    waste = union - area[:, None] - area[None, :]
    waste[np.tril_indices(n)] = -np.inf
    i, j = divmod(int(np.argmax(waste)), n)
    return i, j


def _pick_seeds_linear(entries: List[Entry]) -> Tuple[int, int]:
    """Return seeds with the greatest normalized separation on any axis."""
    dims = entries[0].mbr.dims
    best_norm_sep = -1.0
    seeds = (0, 1)
    for d in range(dims):
        highest_low_idx = max(
            range(len(entries)), key=lambda i: entries[i].mbr.low[d]
        )
        lowest_high_idx = min(
            range(len(entries)), key=lambda i: entries[i].mbr.high[d]
        )
        if highest_low_idx == lowest_high_idx:
            continue
        lo = min(e.mbr.low[d] for e in entries)
        hi = max(e.mbr.high[d] for e in entries)
        width = hi - lo
        if width <= 0:
            continue
        separation = (
            entries[highest_low_idx].mbr.low[d]
            - entries[lowest_high_idx].mbr.high[d]
        )
        norm_sep = separation / width
        if norm_sep > best_norm_sep:
            best_norm_sep = norm_sep
            seeds = (lowest_high_idx, highest_low_idx)
    if seeds[0] == seeds[1]:  # fully degenerate data: fall back
        seeds = (0, 1)
    return seeds
