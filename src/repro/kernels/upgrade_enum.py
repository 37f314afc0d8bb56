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

:func:`enumerate_candidates_batch` and :func:`upgrade_kernel_batch` do the
same for many products at once: every product's candidates form one
contiguous segment of a single block, one ``vector_product_cost`` call
prices all of them, and a segment-wise *first* argmin picks each
product's winner — the scalar rule again, product by product.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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


def enumerate_candidates_batch(
    skylines: "np.ndarray",
    counts: Sequence[int],
    products: "np.ndarray",
    eps: float,
    extended: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """All Algorithm 1 candidates of several products as one block.

    Args:
        skylines: ``(sum(counts), d)`` array: the dominator skylines of
            the products, one after another.
        counts: skyline size of each product (every count ``>= 1``).
        products: ``(len(counts), d)`` array of the products.
        eps: the paper's ε.
        extended: also emit the tail candidates.

    Returns:
        ``(block, starts)``: product ``i``'s candidates are rows
        ``starts[i]`` to ``starts[i + 1]`` of ``block``, in exactly the
        order :func:`enumerate_candidates` gives for that product alone.

    Scalar oracle: `repro.core.upgrade._upgrade_scalar`
    """
    sky = np.asarray(skylines, dtype=np.float64)
    prods = np.asarray(products, dtype=np.float64)
    n = np.asarray(counts, dtype=np.intp)
    dims = prods.shape[1]
    seg = np.repeat(np.arange(len(n)), n)
    first = np.cumsum(n) - n  # each product's first skyline row
    pos = np.arange(len(sky)) - first[seg]  # row rank within its skyline
    inner = np.flatnonzero(pos < n[seg] - 1)  # rows with a successor
    last = first + n - 1
    per_dim = n + (1 if extended else 0)
    starts = np.concatenate(([0], np.cumsum(dims * per_dim)))
    out = np.empty((int(starts[-1]), dims), dtype=np.float64)
    for k in range(dims):
        # Stable sort on D_k within each product's segment: the same
        # order a per-product stable argsort gives.
        ordered = sky[np.lexsort((sky[:, k], seg))]
        base = starts[:-1] + k * per_dim

        # Lines 4-7: beat every skyline point on dimension k alone.
        out[base] = prods
        out[base, k] = ordered[first, k] - eps

        # Lines 8-16: slot between consecutive points s_i < s_j.
        pair = ordered[inner] - eps
        pair[:, k] = ordered[inner + 1, k] - eps
        out[base[seg[inner]] + 1 + pos[inner]] = pair

        if extended:
            # Tail: keep p's own d_k, match the last point elsewhere.
            tail = base + n
            out[tail] = ordered[last] - eps
            out[tail, k] = prods[:, k]
    return out, starts


def upgrade_kernel_batch(
    skylines: "np.ndarray",
    counts: Sequence[int],
    products: "np.ndarray",
    cost_model: CostModel,
    eps: float,
    extended: bool = False,
) -> List[Tuple[float, Point]]:
    """Vectorized Algorithm 1 for several products in one batch evaluation.

    Arguments as for :func:`enumerate_candidates_batch`, except that a
    count may be 0: that product is already competitive and gets
    ``(0.0, product)``, as the scalar ``upgrade`` gives it.  Requires
    ``cost_model.supports_vectorization()``.

    Returns:
        One ``(cost, upgraded_point)`` per product, in input order.

    Scalar oracle: `repro.core.upgrade._upgrade_scalar`
    """
    prods = np.asarray(products, dtype=np.float64)
    n = np.asarray(counts, dtype=np.intp)
    out: List[Tuple[float, Point]] = [
        (0.0, tuple(map(float, row))) for row in prods
    ]
    live = np.flatnonzero(n > 0)
    if not len(live):
        return out
    block, starts = enumerate_candidates_batch(
        skylines, n[live], prods[live], eps, extended
    )
    # One evaluation prices every candidate and every product's base.
    total = len(block)
    priced = np.asarray(
        cost_model.vector_product_cost(np.concatenate((block, prods[live])))
    )
    sizes = np.diff(starts)
    costs = priced[:total] - np.repeat(priced[total:], sizes)
    # Segment-wise *first* argmin, the scalar loop's strict-< rule.
    lows = np.minimum.reduceat(costs, starts[:-1])
    rows = np.where(
        costs == np.repeat(lows, sizes), np.arange(total), total
    )
    winners = np.minimum.reduceat(rows, starts[:-1])
    for i, idx in zip(live, winners):
        out[i] = (float(costs[idx]), tuple(map(float, block[idx])))
    return out
