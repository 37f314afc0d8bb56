"""Algorithm 1 priced once per distinct skyline agrees with per-product runs.

Lines 8-16's slot candidates depend on the dominator skyline alone, so
the join prices them once per distinct skyline of a T-leaf: the scalar
path shares a :func:`~repro.core.upgrade.slot_table` between products
with equal skylines, and :func:`~repro.core.upgrade.upgrade_batch`
enumerates each listed skyline's slots once.  Both must return, for
every product, exactly what a per-product ``_upgrade_scalar`` returns —
``repr``-equal, so even ties on ``D_k`` (quarter-grid data) resolve to
the same candidate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join import JoinUpgrader
from repro.core.types import UpgradeConfig
from repro.core.upgrade import (
    _upgrade_scalar,
    slot_table,
    upgrade,
    upgrade_batch,
)
from repro.costs.attribute import AttributeCost
from repro.costs.model import CostModel, paper_cost_model
from repro.exceptions import NotAnAntichainError
from repro.instrumentation import Counters
from repro.kernels import use_kernels
from repro.rtree.tree import RTree
from repro.skyline.bnl import bnl_skyline


class _ScalarOnlyCost(AttributeCost):
    """``1 / (v + 1e-3)`` with no ``vector``: the scalar fallback."""

    def __call__(self, value: float) -> float:
        return 1.0 / (value + 1e-3)


def _market(rng, dims: int, grid: bool):
    """Distinct skylines, an owner per product, and the products.

    One skyline is empty (already-competitive products); group sizes
    run from 1 to many, and some products repeat.  On the quarter grid
    skyline points tie on every dimension and products tie with them.
    """
    distinct = [[]]
    for _ in range(int(rng.integers(2, 6))):
        n = int(rng.integers(1, 20))
        if grid:
            cloud = rng.integers(1, 8, size=(n, dims)) / 4.0
        else:
            cloud = rng.random((n, dims))
        distinct.append(bnl_skyline([tuple(map(float, r)) for r in cloud]))
    owners, products = [], []
    for _ in range(int(rng.integers(1, 30))):
        owner = int(rng.integers(0, len(distinct)))
        skyline = distinct[owner]
        if not skyline:
            product = tuple(map(float, rng.random(dims) + 2.0))
        else:
            top = np.max(np.array(skyline), axis=0)
            step = (
                rng.integers(0, 2, dims) / 4.0 if grid else rng.random(dims)
            )
            step[int(rng.integers(0, dims))] += 0.25  # strictly dominated
            product = tuple(map(float, top + step))
        copies = 1 + int(rng.random() < 0.2)
        owners += [owner] * copies
        products += [product] * copies
    return distinct, owners, products


def _per_product(distinct, owners, products, model, config):
    """The oracle: one ``_upgrade_scalar`` per product."""
    out = []
    for owner, product in zip(owners, products):
        skyline = distinct[owner]
        if not skyline:
            out.append((0.0, product))
        else:
            out.append(_upgrade_scalar(skyline, product, model, config))
    return out


def _upgrader(model, config) -> JoinUpgrader:
    dims = model.dims
    return JoinUpgrader(
        RTree.bulk_load([(0.5,) * dims]),
        RTree.bulk_load([(1.5,) * dims]),
        model,
        config=config,
    )


def _grouped_scalar(distinct, owners, products, model, config, stats):
    """The join's scalar pricing, handed one list per product.

    Equal skylines arrive as equal but separate lists, as the join's
    per-product skyline computations produce them.
    """
    upgrader = _upgrader(model, config)
    upgrader.stats = stats
    with use_kernels(False):
        return upgrader._price(
            list(products), [list(distinct[i]) for i in owners]
        )


MODELS = {
    "sum": paper_cost_model,
    "weighted": lambda d: paper_cost_model(
        d, weights=[1.0 + 0.5 * i for i in range(d)]
    ),
}


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("grid", [True, False], ids=["grid", "continuous"])
@pytest.mark.parametrize("dims", [2, 3, 4, 5])
def test_grouped_pricing_matches_per_product(dims, grid, extended, model_name):
    model = MODELS[model_name](dims)
    config = UpgradeConfig(epsilon=1e-6, extended=extended)
    rng = np.random.default_rng([dims, int(grid), int(extended)])
    for _ in range(6):
        distinct, owners, products = _market(rng, dims, grid)
        expected = repr(
            _per_product(distinct, owners, products, model, config)
        )
        scalar_stats, batch_stats, flat_stats = (
            Counters(), Counters(), Counters()
        )
        scalar = _grouped_scalar(
            distinct, owners, products, model, config, scalar_stats
        )
        batch = upgrade_batch(
            distinct, products, model, config, batch_stats, owners
        )
        flat = upgrade_batch(
            [distinct[i] for i in owners], products, model, config,
            flat_stats,
        )
        assert repr(scalar) == expected
        assert repr(batch) == expected
        assert repr(flat) == expected
        assert (
            scalar_stats.upgrade_calls
            == batch_stats.upgrade_calls
            == flat_stats.upgrade_calls
            == len(products)
        )


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
def test_validating_mode_checks_every_product(dims):
    """``validate`` keeps Lemma 1's check per product on both paths."""
    model = paper_cost_model(dims)
    config = UpgradeConfig(epsilon=1e-6, validate=True)
    rng = np.random.default_rng([dims, 7])
    distinct, owners, products = _market(rng, dims, True)
    expected = repr(_per_product(distinct, owners, products, model, config))
    assert repr(
        _grouped_scalar(distinct, owners, products, model, config, Counters())
    ) == expected
    assert repr(
        upgrade_batch(distinct, products, model, config, None, owners)
    ) == expected

    # A product its group's skyline does not dominate fails, though the
    # other member passes and both share one skyline.
    skyline = distinct[1]
    inside = tuple(max(s[d] for s in skyline) + 0.25 for d in range(dims))
    outside = tuple(v - 10.0 for v in inside)
    with pytest.raises(NotAnAntichainError):
        _grouped_scalar(
            [skyline], [0, 0], [inside, outside], model, config, Counters()
        )
    with pytest.raises(NotAnAntichainError):
        upgrade_batch(
            [skyline], [inside, outside], model, config, None, [0, 0]
        )


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
def test_scalar_only_cost_groups_on_the_scalar_path(dims):
    """Without ``vector`` the join prices by the scalar path, kernels on."""
    model = CostModel([_ScalarOnlyCost() for _ in range(dims)])
    assert not model.supports_vectorization()
    config = UpgradeConfig(epsilon=1e-6, extended=True)
    rng = np.random.default_rng([dims, 11])
    for grid in (True, False):
        distinct, owners, products = _market(rng, dims, grid)
        expected = repr(
            _per_product(distinct, owners, products, model, config)
        )
        upgrader = _upgrader(model, config)
        with use_kernels(True):
            got = upgrader._price(list(products), distinct, owners)
        assert repr(got) == expected
        assert upgrader.stats.upgrade_calls == len(products)
        assert repr(
            _grouped_scalar(
                distinct, owners, products, model, config, Counters()
            )
        ) == expected


def test_a_shared_table_prices_like_a_fresh_one():
    model = paper_cost_model(3)
    config = UpgradeConfig(epsilon=1e-6, extended=True)
    skyline = [(0.25, 0.5, 0.75), (0.5, 0.25, 0.75), (0.75, 0.75, 0.25)]
    table = slot_table(skyline, model, config)
    for product in [(1.0, 1.0, 1.0), (0.75, 0.75, 1.0), (2.0, 1.0, 0.75)]:
        with use_kernels(False):
            assert repr(
                upgrade(skyline, product, model, config, table=table)
            ) == repr(upgrade(skyline, product, model, config))
