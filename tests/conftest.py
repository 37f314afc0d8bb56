"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.costs.attribute import LinearCost
from repro.costs.model import CostModel, paper_cost_model
from repro.rtree.tree import RTree


@pytest.fixture(scope="session", autouse=True)
def lock_order_witness():
    """Opt-in lock-order witness over every engine the suite constructs.

    With ``SKYUP_LOCK_WITNESS=1`` in the environment (the chaos CI job
    sets it), every :class:`~repro.serve.engine.UpgradeEngine` built by
    any test, in-process or sharded, is instrumented with one shared
    :class:`~repro.analysis.lockorder.LockOrderWitness`; at session end
    the witness fails the run if any lock-order inversion was recorded —
    even one that did not happen to deadlock this time.
    """
    if os.environ.get("SKYUP_LOCK_WITNESS") != "1":
        yield None
        return
    from repro.analysis.lockorder import LockOrderWitness, instrument_engine
    from repro.serve import UpgradeEngine

    witness = LockOrderWitness()
    original_init = UpgradeEngine.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        instrument_engine(self, witness)

    UpgradeEngine.__init__ = recording_init
    try:
        yield witness
    finally:
        UpgradeEngine.__init__ = original_init
        witness.check()


@pytest.fixture(scope="session")
def rng():
    """A session-wide deterministic random generator."""
    return np.random.default_rng(20120401)


@pytest.fixture()
def cost_model_2d() -> CostModel:
    """The paper's reciprocal-sum cost model in two dimensions."""
    return paper_cost_model(2)


@pytest.fixture()
def cost_model_3d() -> CostModel:
    """The paper's reciprocal-sum cost model in three dimensions."""
    return paper_cost_model(3)


@pytest.fixture()
def linear_model_3d() -> CostModel:
    """A linear cost model safe for negative coordinates (phone data)."""
    return CostModel([LinearCost(0.0, 1.0) for _ in range(3)])


@pytest.fixture()
def small_tree_2d(rng) -> RTree:
    """A bulk-loaded 300-point 2-d tree over [0, 1]^2."""
    points = np.random.default_rng(5).random((300, 2))
    return RTree.bulk_load(points)


def make_mixed_instance(seed: int, n_p: int = 200, n_t: int = 60, dims: int = 2):
    """A (P, T) instance where T overlaps P's domain (mixed dominance)."""
    gen = np.random.default_rng(seed)
    competitors = gen.random((n_p, dims))
    products = gen.random((n_t, dims)) * 1.6
    return competitors, products
