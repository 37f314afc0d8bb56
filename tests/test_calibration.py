"""Tests for attribute-cost calibration (least-squares fitting)."""

import numpy as np
import pytest

from repro.costs.attribute import (
    ExponentialCost,
    LinearCost,
    PiecewiseLinearCost,
    ReciprocalCost,
)
from repro.costs.calibration import (
    fit_attribute_cost,
    fit_exponential,
    fit_linear,
    fit_piecewise,
    fit_reciprocal,
)
from repro.exceptions import CostFunctionError

V = np.linspace(0.1, 2.0, 60)
RNG = np.random.default_rng(17)


class TestFamilyFits:
    def test_linear_recovers_parameters(self):
        c = 10.0 - 3.0 * V
        result = fit_linear(V, c)
        assert isinstance(result.cost, LinearCost)
        assert result.cost.intercept == pytest.approx(10.0, abs=1e-9)
        assert result.cost.slope == pytest.approx(3.0, abs=1e-9)
        assert result.rmse < 1e-9

    def test_linear_clamps_upward_slope(self):
        c = 1.0 + 2.0 * V  # increasing: invalid for upgrading costs
        result = fit_linear(V, c)
        assert result.cost.slope == 0.0
        # Flat at the mean: still monotone (non-increasing).
        assert result.cost(0.0) == result.cost(5.0)

    def test_reciprocal_recovers_scale(self):
        c = 3.0 / (V + 0.1)
        result = fit_reciprocal(V, c, offsets=[0.05, 0.1, 0.5])
        assert isinstance(result.cost, ReciprocalCost)
        assert result.cost.offset == pytest.approx(0.1)
        assert result.cost.scale == pytest.approx(3.0, rel=1e-6)

    def test_exponential_recovers_parameters(self):
        c = 2.0 * np.exp(-1.5 * V)
        result = fit_exponential(V, c)
        assert isinstance(result.cost, ExponentialCost)
        assert result.cost.scale == pytest.approx(2.0, rel=1e-6)
        assert result.cost.rate == pytest.approx(1.5, rel=1e-6)

    def test_exponential_requires_positive_costs(self):
        with pytest.raises(CostFunctionError):
            fit_exponential(V, np.linspace(1.0, -1.0, 60))

    def test_piecewise_is_monotone(self):
        c = 5.0 / (V + 0.2) + RNG.normal(0, 0.05, len(V))
        result = fit_piecewise(V, c)
        assert isinstance(result.cost, PiecewiseLinearCost)
        samples = [result.cost(x) for x in np.linspace(0.1, 2.0, 40)]
        assert all(a >= b - 1e-9 for a, b in zip(samples, samples[1:]))

    def test_piecewise_segment_validation(self):
        with pytest.raises(CostFunctionError):
            fit_piecewise(V, 1.0 / V, segments=1)


class TestInputValidation:
    def test_too_few_points(self):
        with pytest.raises(CostFunctionError):
            fit_linear([1.0, 2.0], [1.0, 0.5])

    def test_mismatched_lengths(self):
        with pytest.raises(CostFunctionError):
            fit_linear([1.0, 2.0, 3.0], [1.0, 0.5])

    def test_degenerate_values(self):
        with pytest.raises(CostFunctionError):
            fit_linear([1.0, 1.0, 1.0], [3.0, 2.0, 1.0])


class TestModelSelection:
    def test_selects_reciprocal_for_reciprocal_data(self):
        c = 3.0 / (V + 0.1)
        assert fit_attribute_cost(V, c).family == "reciprocal"

    def test_selects_linear_for_linear_data(self):
        c = 10.0 - 3.0 * V
        assert fit_attribute_cost(V, c).family == "linear"

    def test_selects_exponential_for_exponential_data(self):
        c = 2.0 * np.exp(-2.0 * V)
        assert fit_attribute_cost(V, c).family == "exponential"

    def test_fitted_cost_usable_in_a_model(self):
        from repro.core.api import top_k_upgrades
        from repro.costs.model import CostModel

        c = 3.0 / (V + 0.1) + RNG.normal(0, 0.01, len(V))
        fitted = fit_attribute_cost(V, c).cost
        model = CostModel([fitted, fitted])
        outcome = top_k_upgrades(
            [(0.5, 0.5)], [(1.0, 1.0)], cost_model=model
        )
        assert outcome.results[0].cost > 0

    def test_noisy_data_still_fits_best_family(self):
        c = 3.0 / (V + 0.1) + RNG.normal(0, 0.02, len(V))
        result = fit_attribute_cost(V, c)
        assert result.family in ("reciprocal", "piecewise")
        assert result.rmse < 0.2

    def test_repr(self):
        result = fit_linear(V, 10.0 - 3.0 * V)
        assert "linear" in repr(result)
