"""Algorithm 1: upgrading a single product (paper §II).

Given a product ``p`` and the skyline ``S`` of its dominators, the algorithm
considers, for every dimension ``D_k``:

1. the **single-dimension** upgrade — give ``p`` the best ``D_k`` value among
   all skyline points, minus ε (lines 4–7 of the pseudo code); and
2. the **slotting** upgrades — for every pair of consecutive (in ``D_k``
   order) skyline points ``s_i``, ``s_j``, place ``p`` just below ``s_j`` on
   ``D_k`` and just below ``s_i`` on every other dimension (lines 8–16).

The cheapest alternative wins.  Lemma 1 proves every alternative yields a
point no skyline point dominates, *provided* ``S`` is an antichain — which is
why callers must reduce dominator sets to skylines first
(``UpgradeConfig.validate`` makes this a checked precondition).

The optional **extended** mode adds a third family the paper's pseudo code
omits: keep ``p``'s own ``D_k`` value and match the *last* (largest-``D_k``)
skyline point on every other dimension.  Correctness: the last point
``s_last`` is beaten on all dimensions but ``D_k``; any other ``s`` has
``s.d_k <= s_last.d_k``, so by the antichain property there is a dimension
``y != D_k`` with ``s.d_y > s_last.d_y``, where the upgraded point's value
``s_last.d_y - ε`` is strictly better than ``s.d_y``.  The extension can
only lower the chosen cost (it adds candidates); the paper itself notes the
optimality of Algorithm 1 as an open question (§VI).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import UpgradeConfig
from repro.costs.model import CostModel
from repro.exceptions import DimensionalityError, NotAnAntichainError
from repro.geometry.point import dominates
from repro.instrumentation import Counters
from repro.kernels.switch import kernels_enabled
from repro.kernels.upgrade_enum import upgrade_kernel, upgrade_kernel_batch
from repro.obs import span

Point = Tuple[float, ...]

_DEFAULT_CONFIG = UpgradeConfig()


def upgrade(
    skyline: Sequence[Sequence[float]],
    product: Sequence[float],
    cost_model: CostModel,
    config: UpgradeConfig = _DEFAULT_CONFIG,
    stats: Optional[Counters] = None,
) -> Tuple[float, Point]:
    """Upgrade ``product`` past the dominator skyline ``skyline``.

    Args:
        skyline: the skyline of ``product``'s dominators (an antichain in
            which every point dominates ``product``).  May be empty, in
            which case the product is already competitive.
        product: the point to upgrade.
        cost_model: the product cost function ``f_p``.
        config: ε, extended-mode, and validation switches.
        stats: optional counters (``upgrade_calls`` is incremented once).

    Returns:
        ``(cost, upgraded_point)`` with
        ``cost == f_p(upgraded_point) - f_p(product)``; ``(0.0, product)``
        when the skyline is empty.

    Raises:
        NotAnAntichainError: in validating mode, when ``skyline`` contains a
            dominated point or a point that fails to dominate ``product``.
    """
    p = tuple(float(v) for v in product)
    points: List[Point] = [tuple(float(v) for v in s) for s in skyline]
    _check_skyline(points, p, config)
    if stats is not None:
        stats.upgrade_calls += 1
    if not points:
        return 0.0, p

    use_kernel = (
        kernels_enabled()
        and len(points) >= _VECTOR_THRESHOLD
        and cost_model.supports_vectorization()
    )
    with span(
        "upgrade.algorithm1",
        skyline_size=len(points),
        kernel_or_scalar="kernel" if use_kernel else "scalar",
    ):
        if use_kernel:
            # Columnar path: the whole candidate set priced in one batch
            # (same visit order as below, so ties resolve identically).
            if stats is None:
                return upgrade_kernel(
                    points, p, cost_model, config.epsilon, config.extended
                )
            with stats.timed("kernel.upgrade"):
                return upgrade_kernel(
                    points, p, cost_model, config.epsilon, config.extended
                )
        if stats is not None:
            with stats.timed("scalar.upgrade"):
                return _upgrade_scalar(points, p, cost_model, config)
        return _upgrade_scalar(points, p, cost_model, config)


def upgrade_batch(
    skylines: Sequence[Sequence[Sequence[float]]],
    products: Sequence[Sequence[float]],
    cost_model: CostModel,
    config: UpgradeConfig = _DEFAULT_CONFIG,
    stats: Optional[Counters] = None,
) -> List[Tuple[float, Point]]:
    """:func:`upgrade` for several products, priced in one kernel pass.

    ``skylines[i]`` is the dominator skyline of ``products[i]``.  Every
    product's Algorithm 1 candidates go into one block that a single
    ``vector_product_cost`` call prices, so many small skylines cost one
    numpy dispatch instead of one Python loop each.  This is the kernel
    path only: callers check :func:`~repro.kernels.switch.kernels_enabled`
    and ``cost_model.supports_vectorization()`` and otherwise call
    :func:`upgrade` per product, the oracle this must agree with.

    Returns:
        One ``(cost, upgraded_point)`` per product, in input order, exactly
        as :func:`upgrade` returns it; ``upgrade_calls`` grows by
        ``len(products)``.
    """
    points = [tuple(float(v) for v in p) for p in products]
    for skyline, p in zip(skylines, points):
        _check_skyline(skyline, p, config)
    if stats is not None:
        stats.upgrade_calls += len(points)
    if not points:
        return []
    rows = [s for skyline in skylines for s in skyline]
    with span(
        "upgrade.algorithm1",
        products=len(points),
        skyline_size=len(rows),
        kernel_or_scalar="kernel",
    ):
        args = (
            np.array(rows, dtype=np.float64).reshape(-1, len(points[0])),
            [len(skyline) for skyline in skylines],
            np.array(points, dtype=np.float64),
            cost_model,
            config.epsilon,
            config.extended,
        )
        if stats is None:
            return upgrade_kernel_batch(*args)
        with stats.timed("kernel.upgrade"):
            return upgrade_kernel_batch(*args)


def _check_skyline(
    skyline: Sequence[Sequence[float]],
    product: Point,
    config: UpgradeConfig,
) -> None:
    """Dimensionality, and in validating mode Lemma 1's preconditions."""
    dims = len(product)
    for s in skyline:
        if len(s) != dims:
            raise DimensionalityError(
                f"skyline point has {len(s)} dims, product has {dims}"
            )
    if config.validate and skyline:
        _validate_antichain(skyline, product)


def _upgrade_scalar(
    points: List[Point],
    p: Point,
    cost_model: CostModel,
    config: UpgradeConfig,
) -> Tuple[float, Point]:
    """The paper's Algorithm 1 verbatim — the kernel path's oracle."""
    dims = len(p)
    eps = config.epsilon
    base_cost = cost_model.product_cost(p)
    best_cost = float("inf")
    best: Optional[Point] = None

    for k in range(dims):
        ordered = sorted(points, key=lambda s: s[k])

        # Lines 4-7: beat every skyline point on dimension k alone.
        lowest = ordered[0]
        candidate = p[:k] + (lowest[k] - eps,) + p[k + 1 :]
        cost = cost_model.product_cost(candidate) - base_cost
        if cost < best_cost:
            best_cost = cost
            best = candidate

        # Lines 8-16: slot between consecutive skyline points s_i < s_j on
        # dimension k, matching s_i on every other dimension.
        for i in range(len(ordered) - 1):
            s_i = ordered[i]
            s_j = ordered[i + 1]
            candidate = tuple(
                (s_j[k] - eps) if x == k else (s_i[x] - eps)
                for x in range(dims)
            )
            cost = cost_model.product_cost(candidate) - base_cost
            if cost < best_cost:
                best_cost = cost
                best = candidate

        if config.extended:
            # Tail extension: keep p's own d_k, match the last point on the
            # other dimensions (see module docstring for the proof).
            s_last = ordered[-1]
            candidate = tuple(
                p[x] if x == k else (s_last[x] - eps) for x in range(dims)
            )
            cost = cost_model.product_cost(candidate) - base_cost
            if cost < best_cost:
                best_cost = cost
                best = candidate

    assert best is not None  # points is non-empty, so some candidate exists
    return best_cost, best


#: Skyline size above which the columnar kernel path takes over (below it
#: the numpy dispatch overhead loses to the plain loops).
_VECTOR_THRESHOLD = 48


def _validate_antichain(
    points: Sequence[Sequence[float]], product: Point
) -> None:
    """Check Lemma 1's preconditions on the skyline input."""
    for i, a in enumerate(points):
        if not dominates(a, product):
            raise NotAnAntichainError(
                f"skyline point {a} does not dominate the product {product}"
            )
        for b in points[i + 1 :]:
            if dominates(a, b) or dominates(b, a):
                raise NotAnAntichainError(
                    f"skyline input is not an antichain: {a} vs {b}"
                )
