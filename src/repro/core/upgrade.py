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

The slot candidates of lines 8-16, and their ``f_p`` values, depend on
``S`` alone: only the ``d`` single-dimension candidates, the tails and the
base cost ``f_p(p)`` depend on the product.  :func:`slot_table` sorts
``S`` and prices its slots once, and products with equal skylines share
one table (the join prices a T-leaf this way, and
:func:`upgrade_batch` enumerates each distinct skyline's slots once).
Sharing changes no bit of any answer: a slot's cost is the same
``f_p(candidate)`` float however often it is read, each product
subtracts its own base from it as the unshared loop does, and the
candidates are visited in the same order under the same strict-``<``
rule.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

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
    table: Optional["SlotTable"] = None,
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
        table: :func:`slot_table` of ``skyline`` under the same model and
            config, for a caller pricing several products against one
            skyline; its points stand in for ``skyline``.  Built here
            when omitted.  Only the scalar path reads the slots (the
            kernel path prices its own block).

    Returns:
        ``(cost, upgraded_point)`` with
        ``cost == f_p(upgraded_point) - f_p(product)``; ``(0.0, product)``
        when the skyline is empty.

    Raises:
        NotAnAntichainError: in validating mode, when ``skyline`` contains a
            dominated point or a point that fails to dominate ``product``.
    """
    p = tuple(float(v) for v in product)
    points = _as_points(skyline) if table is None else table.points
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
                return _upgrade_scalar(points, p, cost_model, config, table)
        return _upgrade_scalar(points, p, cost_model, config, table)


def upgrade_batch(
    skylines: Sequence[Sequence[Sequence[float]]],
    products: Sequence[Sequence[float]],
    cost_model: CostModel,
    config: UpgradeConfig = _DEFAULT_CONFIG,
    stats: Optional[Counters] = None,
    owners: Optional[Sequence[int]] = None,
) -> List[Tuple[float, Point]]:
    """:func:`upgrade` for several products, priced in one kernel pass.

    ``skylines[owners[i]]`` is the dominator skyline of ``products[i]``
    (``skylines[i]`` without ``owners``), so products that share a
    skyline can share its entry.  Every product's Algorithm 1 candidates
    go into one block that a single ``vector_product_cost`` call prices:
    each distinct skyline's slot candidates once, each product's own
    single-dimension and tail candidates, and each product's base.  This
    is the kernel path only: callers check
    :func:`~repro.kernels.switch.kernels_enabled` and
    ``cost_model.supports_vectorization()`` and otherwise call
    :func:`upgrade` per product, the oracle this must agree with.

    Returns:
        One ``(cost, upgraded_point)`` per product, in input order, exactly
        as :func:`upgrade` returns it; ``upgrade_calls`` grows by
        ``len(products)``.
    """
    if stats is not None:
        stats.upgrade_calls += len(products)
    if not len(products):
        return []
    prods = np.array(products, dtype=np.float64)
    dims = prods.shape[1]
    for skyline in skylines:
        _check_dims(skyline, dims)
    if owners is None:
        owners = range(len(skylines))
    if config.validate:
        for owner, p in zip(owners, map(tuple, prods.tolist())):
            if skylines[owner]:
                _validate_antichain(skylines[owner], p)
    rows = [s for skyline in skylines for s in skyline]
    with span(
        "upgrade.algorithm1",
        products=len(prods),
        skyline_size=len(rows),
        kernel_or_scalar="kernel",
    ):
        args = (
            np.array(rows, dtype=np.float64).reshape(-1, dims),
            [len(skyline) for skyline in skylines],
            prods,
            cost_model,
            config.epsilon,
            config.extended,
            owners,
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
    _check_dims(skyline, len(product))
    if config.validate and skyline:
        _validate_antichain(skyline, product)


def _check_dims(skyline: Sequence[Sequence[float]], dims: int) -> None:
    for s in skyline:
        if len(s) != dims:
            raise DimensionalityError(
                f"skyline point has {len(s)} dims, product has {dims}"
            )


class SlotTable(NamedTuple):
    """Algorithm 1's product-independent half for one skyline ``S``.

    Attributes:
        points: ``S`` as float tuples, in input order.
        per_dim: for each dimension ``D_k``: the lowest ``D_k`` value, the
            last point in ``D_k`` order, the slot candidates of lines 8-16
            in ascending ``D_k`` order, and their ``f_p`` values.
    """

    points: List[Point]
    per_dim: List[Tuple[float, Point, List[Point], List[float]]]


def slot_table(
    skyline: Sequence[Sequence[float]],
    cost_model: CostModel,
    config: UpgradeConfig = _DEFAULT_CONFIG,
) -> SlotTable:
    """Sort and price what every product with dominator skyline ``S`` shares.

    Lines 8-16's slot candidates are built from skyline points alone, so
    products with equal (same points, same order) non-empty skylines can
    share one table and pay only for their own candidates and base.
    """
    return _slot_table(_as_points(skyline), cost_model, config)


def _slot_table(
    points: List[Point], cost_model: CostModel, config: UpgradeConfig
) -> SlotTable:
    eps = config.epsilon
    # s - ε for every point and dimension: each slot candidate takes
    # s_i - ε on every dimension but D_k, and s_j[k] - ε on D_k.
    lowered = [tuple(v - eps for v in s) for s in points]
    per_dim = []
    for k in range(len(points[0])):
        order = sorted(range(len(points)), key=lambda i: points[i][k])
        # Lines 8-16: slot between consecutive skyline points s_i < s_j on
        # dimension k, matching s_i on every other dimension.
        candidates = [
            lowered[i][:k] + (lowered[j][k],) + lowered[i][k + 1 :]
            for i, j in zip(order, order[1:])
        ]
        costs = list(map(cost_model.product_cost, candidates))
        per_dim.append(
            (points[order[0]][k], points[order[-1]], candidates, costs)
        )
    return SlotTable(points, per_dim)


def _as_points(skyline: Sequence[Sequence[float]]) -> List[Point]:
    return [tuple(float(v) for v in s) for s in skyline]


def _upgrade_scalar(
    points: List[Point],
    p: Point,
    cost_model: CostModel,
    config: UpgradeConfig,
    table: Optional[SlotTable] = None,
) -> Tuple[float, Point]:
    """The paper's Algorithm 1 verbatim — the kernel path's oracle.

    Candidates are visited dimension by dimension (single, slots in
    ascending ``D_k`` order, tail) and a later one wins only at a strictly
    lower cost.  Slot costs come from ``table`` (built from ``points``
    when omitted); each is ``f_p(candidate) - f_p(p)``, the same float
    subtraction whether the table is shared or not.
    """
    if table is None:
        table = _slot_table(points, cost_model, config)
    eps = config.epsilon
    base_cost = cost_model.product_cost(p)
    best_cost = float("inf")
    best: Optional[Point] = None

    for k, (lowest, s_last, candidates, costs) in enumerate(table.per_dim):
        # Lines 4-7: beat every skyline point on dimension k alone.
        candidate = p[:k] + (lowest - eps,) + p[k + 1 :]
        cost = cost_model.product_cost(candidate) - base_cost
        if cost < best_cost:
            best_cost = cost
            best = candidate

        for candidate, slot_cost in zip(candidates, costs):
            cost = slot_cost - base_cost
            if cost < best_cost:
                best_cost = cost
                best = candidate

        if config.extended:
            # Tail extension: keep p's own d_k, match the last point on the
            # other dimensions (see module docstring for the proof).
            candidate = tuple(
                p[x] if x == k else (s_last[x] - eps) for x in range(len(p))
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
