"""Algorithm 1 candidate enumeration as one columnar pass.

The scalar upgrade loop (:mod:`repro.core.upgrade`) evaluates, for every
dimension ``k``, one single-dimension candidate, ``|S| - 1`` slot-between
candidates, and (in extended mode) one tail candidate — each with a Python
``f_p`` call.  :func:`enumerate_candidates` materializes the *entire*
candidate set across all dimensions into one ``(N, d)`` block, and
:func:`upgrade_kernel` prices it with a single
:meth:`~repro.costs.model.CostModel.vector_product_cost` evaluation.

The block lists candidates in exactly the scalar path's visit order
(dimension by dimension: single, pairs in ascending-``D_k`` order, tail),
and ``np.argmin`` returns the *first* minimum — so the kernel selects the
same candidate the scalar loop's strict-improvement rule does, making the
two paths bit-identical wherever the per-row cost sums are (they perform
the same additions in the same order for (weighted-)sum integrations).

:func:`upgrade_kernel_batch` does the same for many products at once.
The slot candidates (lines 8-16) depend on the dominator skyline alone,
so :func:`enumerate_candidates_grouped` emits each distinct skyline's
slot rows once, plus each product's own single-dimension and tail rows.
One ``vector_product_cost`` call prices all of them and every product's
base; a gather index then lays ``cost - base`` out as one contiguous
segment per product, in the scalar visit order, and a segment-wise
*first* argmin picks each product's winner — the scalar rule again,
product by product.  A row's price does not depend on which other rows
share the call (the attribute costs are elementwise), so a shared slot
row costs exactly what a per-product copy would.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.costs.model import CostModel

Point = Tuple[float, ...]


def enumerate_candidates(
    skyline: "np.ndarray",
    product: Sequence[float],
    eps: float,
    extended: bool = False,
) -> np.ndarray:
    """All Algorithm 1 candidates for ``product`` vs ``skyline`` as a block.

    Args:
        skyline: ``(n, d)`` array of dominator-skyline points (``n >= 1``).
        product: the product ``t`` being upgraded.
        eps: the paper's ε.
        extended: also emit the tail candidates (see
            :mod:`repro.core.upgrade` for the correctness argument).

    Returns:
        An ``(N, d)`` float64 block, ``N = d * (1 + max(0, n-1) + extended)``,
        ordered exactly as the scalar loop visits candidates.

    Scalar oracle: `repro.core.upgrade._upgrade_scalar`
    """
    sky = np.asarray(skyline, dtype=np.float64)
    n, dims = sky.shape
    p_row = np.asarray(product, dtype=np.float64)
    per_dim = 1 + max(0, n - 1) + (1 if extended else 0)
    out = np.empty((dims * per_dim, dims), dtype=np.float64)
    row = 0
    for k in range(dims):
        order = np.argsort(sky[:, k], kind="stable")
        ordered = sky[order]

        # Lines 4-7: beat every skyline point on dimension k alone.
        out[row] = p_row
        out[row, k] = ordered[0, k] - eps
        row += 1

        # Lines 8-16: slot between consecutive points s_i < s_j on
        # dimension k, matching s_i on every other dimension.
        if n > 1:
            pair = ordered[:-1] - eps
            pair[:, k] = ordered[1:, k] - eps
            out[row : row + n - 1] = pair
            row += n - 1

        if extended:
            # Tail: keep p's own d_k, match the last point elsewhere.
            out[row] = ordered[-1] - eps
            out[row, k] = p_row[k]
            row += 1
    return out


def upgrade_kernel(
    skyline: "np.ndarray",
    product: Sequence[float],
    cost_model: CostModel,
    eps: float,
    extended: bool = False,
) -> Tuple[float, Point]:
    """Vectorized Algorithm 1: cheapest candidate in one batch evaluation.

    Requires ``cost_model.supports_vectorization()`` (callers check; the
    scalar loop in :mod:`repro.core.upgrade` is the fallback and oracle).

    Returns:
        ``(cost, upgraded_point)`` exactly as the scalar ``upgrade`` does.

    Scalar oracle: `repro.core.upgrade._upgrade_scalar`
    """
    sky = np.asarray(skyline, dtype=np.float64)
    block = enumerate_candidates(sky, product, eps, extended)
    p_row = np.asarray(product, dtype=np.float64)
    base = float(cost_model.vector_product_cost(p_row[None, :])[0])
    costs = np.asarray(cost_model.vector_product_cost(block)) - base
    idx = int(np.argmin(costs))
    return float(costs[idx]), tuple(map(float, block[idx]))


def enumerate_candidates_grouped(
    skylines: "np.ndarray",
    counts: Sequence[int],
    owners: Sequence[int],
    products: "np.ndarray",
    eps: float,
    extended: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 1's candidates for products that share skylines.

    Lines 8-16's slot candidates depend on the skyline alone, so each
    distinct skyline's slots are emitted once; only the single-dimension
    candidates (lines 4-7) and the tails depend on the product.

    Args:
        skylines: ``(sum(counts), d)`` array: the distinct dominator
            skylines, one after another.
        counts: size of each distinct skyline (every count ``>= 1``).
        owners: for each product, the index of its skyline in ``counts``.
        products: ``(len(owners), d)`` array of the products.
        eps: the paper's ε.
        extended: also emit the tail candidates.

    Returns:
        ``(rows, gather, starts)``: product ``i``'s candidates are
        ``rows[gather[starts[i]:starts[i + 1]]]``, in exactly the order
        :func:`enumerate_candidates` gives for that product alone.  Each
        skyline's slot rows appear once in ``rows``, however many
        products own it.

    Scalar oracle: `repro.core.upgrade._upgrade_scalar`
    """
    sky = np.asarray(skylines, dtype=np.float64)
    prods = np.asarray(products, dtype=np.float64)
    n = np.asarray(counts, dtype=np.intp)
    own = np.asarray(owners, dtype=np.intp)
    m, dims = prods.shape
    seg = np.repeat(np.arange(len(n)), n)
    first = np.cumsum(n) - n  # each skyline's first row
    pos = np.arange(len(sky)) - first[seg]  # row rank within its skyline
    inner = np.flatnonzero(pos < n[seg] - 1)  # rows with a successor
    pairs = len(inner)
    slots = np.empty((dims * pairs, dims), dtype=np.float64)
    lowest = np.empty((len(n), dims), dtype=np.float64)
    last = np.empty((len(n), dims, dims), dtype=np.float64)
    for k in range(dims):
        # Stable sort on D_k within each skyline: the same order a
        # per-skyline stable argsort gives.
        ordered = sky[np.lexsort((sky[:, k], seg))]
        lowest[:, k] = ordered[first, k]
        last[:, k] = ordered[first + n - 1]

        # Lines 8-16: slot between consecutive points s_i < s_j.
        pair = ordered[inner] - eps
        pair[:, k] = ordered[inner + 1, k] - eps
        slots[k * pairs : (k + 1) * pairs] = pair

    diag = np.arange(dims)
    # Lines 4-7: beat every skyline point on dimension k alone.
    single = np.repeat(prods, dims, axis=0).reshape(m, dims, dims)
    single[:, diag, diag] = lowest[own] - eps
    blocks = [slots, single.reshape(m * dims, dims)]
    if extended:
        # Tail: keep p's own d_k, match the last point elsewhere.
        tail = last[own] - eps
        tail[:, diag, diag] = prods
        blocks.append(tail.reshape(m * dims, dims))
    rows = np.concatenate(blocks)

    # Per product and dimension, three runs of consecutive rows: the
    # single candidate, the skyline's slots, the tail (if extended).
    # Skyline g's n_g - 1 slots on D_k start at row first[g] - g of
    # dimension k's block of ``slots``.
    own_single = dims * pairs + np.arange(m * dims).reshape(m, dims)
    run_rows = np.empty((m, dims, 3), dtype=np.intp)
    run_rows[:, :, 0] = own_single
    run_rows[:, :, 1] = (first - np.arange(len(n)))[own][:, None] + (
        diag * pairs
    )
    run_rows[:, :, 2] = own_single + m * dims
    run_len = np.empty((m, dims, 3), dtype=np.intp)
    run_len[:, :, 0] = 1
    run_len[:, :, 1] = (n[own] - 1)[:, None]
    run_len[:, :, 2] = int(extended)
    lengths = run_len.ravel()
    run_pos = np.cumsum(lengths) - lengths
    gather = np.arange(int(lengths.sum())) + np.repeat(
        run_rows.ravel() - run_pos, lengths
    )
    sizes = dims * (n[own] + int(extended))
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return rows, gather, starts


def upgrade_kernel_batch(
    skylines: "np.ndarray",
    counts: Sequence[int],
    products: "np.ndarray",
    cost_model: CostModel,
    eps: float,
    extended: bool = False,
    owners: Optional[Sequence[int]] = None,
) -> List[Tuple[float, Point]]:
    """Vectorized Algorithm 1 for several products in one batch evaluation.

    Arguments as for :func:`enumerate_candidates_grouped`, except that a
    count may be 0: a product owning that skyline is already competitive
    and gets ``(0.0, product)``, as the scalar ``upgrade`` gives it.
    ``owners`` defaults to one skyline per product, in order.  Requires
    ``cost_model.supports_vectorization()``.

    One ``vector_product_cost`` call prices each distinct skyline's slot
    rows once, every product's own rows and every product's base; each
    product then scans ``slot_cost - base`` in the scalar visit order.

    Returns:
        One ``(cost, upgraded_point)`` per product, in input order.

    Scalar oracle: `repro.core.upgrade._upgrade_scalar`
    """
    prods = np.asarray(products, dtype=np.float64)
    n = np.asarray(counts, dtype=np.intp)
    own = np.arange(len(n)) if owners is None else np.asarray(owners)
    out: List[Tuple[float, Point]] = [
        (0.0, tuple(map(float, row))) for row in prods
    ]
    nonempty = n > 0
    live = np.flatnonzero(nonempty[own])
    if not len(live):
        return out
    # Empty skylines have no rows; renumber the others.
    renumber = np.cumsum(nonempty) - 1
    rows, gather, starts = enumerate_candidates_grouped(
        skylines, n[nonempty], renumber[own[live]], prods[live], eps,
        extended,
    )
    # One evaluation prices every candidate row and every product's base.
    total = len(rows)
    priced = np.asarray(
        cost_model.vector_product_cost(np.concatenate((rows, prods[live])))
    )
    sizes = np.diff(starts)
    costs = priced[gather] - np.repeat(priced[total:], sizes)
    # Segment-wise *first* argmin, the scalar loop's strict-< rule.
    segments = len(gather)
    lows = np.minimum.reduceat(costs, starts[:-1])
    picks = np.where(
        costs == np.repeat(lows, sizes), np.arange(segments), segments
    )
    winners = np.minimum.reduceat(picks, starts[:-1])
    for i, idx in zip(live, winners):
        out[i] = (float(costs[idx]), tuple(map(float, rows[gather[idx]])))
    return out
