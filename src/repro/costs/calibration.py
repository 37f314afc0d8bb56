"""Fitting attribute cost functions to observed data.

Practitioners rarely know their cost curves analytically; they have
(attribute value, manufacturing cost) observations — a bill of materials,
supplier quotes, engineering estimates.  This module fits each shipped
attribute-cost family to such observations by least squares (closed-form,
numpy only) and selects the best-fitting family:

* :class:`~repro.costs.attribute.LinearCost` — ordinary least squares;
* :class:`~repro.costs.attribute.ReciprocalCost` — linear in the
  transformed regressor ``1 / (v + offset)`` with the offset chosen by a
  small grid search;
* :class:`~repro.costs.attribute.ExponentialCost` — log-linear least
  squares (requires positive costs);
* :class:`~repro.costs.attribute.PiecewiseLinearCost` — isotonic-style
  fit on binned means, constrained non-increasing.

Fits are clamped to the monotone (non-increasing) families the upgrading
algorithms require; a fit that would slope upward degrades to the flattest
member of its family and reports a poor score, so selection naturally
avoids it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.costs.attribute import (
    AttributeCost,
    ExponentialCost,
    LinearCost,
    PiecewiseLinearCost,
    ReciprocalCost,
)
from repro.exceptions import CostFunctionError


@dataclass(frozen=True)
class FitResult:
    """One fitted candidate: the cost function and its fit quality."""

    cost: AttributeCost
    family: str
    rmse: float

    def __repr__(self) -> str:
        return (
            f"FitResult({self.family}: {self.cost.describe()}, "
            f"rmse={self.rmse:.4g})"
        )


def _as_arrays(
    values: Sequence[float], costs: Sequence[float]
) -> Tuple["np.ndarray", "np.ndarray"]:
    v = np.asarray(values, dtype=np.float64)
    c = np.asarray(costs, dtype=np.float64)
    if v.ndim != 1 or c.ndim != 1 or len(v) != len(c):
        raise CostFunctionError(
            "values and costs must be equal-length 1-d sequences"
        )
    if len(v) < 3:
        raise CostFunctionError("need at least 3 observations to fit")
    if np.ptp(v) == 0:
        raise CostFunctionError("observations cover a single value")
    return v, c


def _rmse(cost: AttributeCost, v: "np.ndarray", c: "np.ndarray") -> float:
    predicted = cost.vector(v)
    return float(np.sqrt(np.mean((predicted - c) ** 2)))


def fit_linear(
    values: Sequence[float], costs: Sequence[float]
) -> FitResult:
    """Least-squares :class:`LinearCost` (slope clamped non-negative)."""
    v, c = _as_arrays(values, costs)
    slope, intercept = np.polyfit(v, c, 1)
    slope = -float(slope)
    if slope < 0:  # upward-sloping data: degrade to the flat member
        slope = 0.0
        intercept = float(np.mean(c))
    fitted = LinearCost(intercept=float(intercept), slope=slope)
    return FitResult(fitted, "linear", _rmse(fitted, v, c))


def fit_reciprocal(
    values: Sequence[float],
    costs: Sequence[float],
    offsets: Optional[Sequence[float]] = None,
) -> FitResult:
    """Least-squares :class:`ReciprocalCost` over an offset grid.

    For each candidate ``offset``, ``cost ~ scale / (v + offset)`` is
    linear in ``1 / (v + offset)`` with a zero intercept; the scale is the
    ratio-of-moments least-squares solution.  The best offset on a coarse
    log grid is then refined by two rounds of local grid search.
    """
    v, c = _as_arrays(values, costs)
    span = float(np.ptp(v)) or 1.0
    if offsets is None:
        offsets = [
            span * f
            for f in np.logspace(-4, 0.5, 24)
        ]

    def evaluate(offset: float) -> Optional[FitResult]:
        if np.any(v + offset <= 0):
            return None
        x = 1.0 / (v + offset)
        scale = float(np.dot(x, c) / np.dot(x, x))
        if scale <= 0:
            return None
        fitted = ReciprocalCost(scale=scale, offset=float(offset))
        return FitResult(fitted, "reciprocal", _rmse(fitted, v, c))

    best: Optional[FitResult] = None
    for offset in offsets:
        result = evaluate(float(offset))
        if result and (best is None or result.rmse < best.rmse):
            best = result
    if best is None:
        raise CostFunctionError(
            "no valid reciprocal fit (non-positive values or costs)"
        )
    # Local refinement around the winning offset.
    for _ in range(2):
        center = best.cost.offset
        for offset in np.linspace(center * 0.5, center * 1.5, 15):
            if offset <= 0:
                continue
            result = evaluate(float(offset))
            if result and result.rmse < best.rmse:
                best = result
    return best


def fit_exponential(
    values: Sequence[float], costs: Sequence[float]
) -> FitResult:
    """Log-linear :class:`ExponentialCost` fit (positive costs only)."""
    v, c = _as_arrays(values, costs)
    if np.any(c <= 0):
        raise CostFunctionError(
            "exponential fits require strictly positive costs"
        )
    slope, intercept = np.polyfit(v, np.log(c), 1)
    rate = -float(slope)
    if rate <= 0:
        rate = 1e-9  # flattest member of the family
    fitted = ExponentialCost(scale=float(np.exp(intercept)), rate=rate)
    return FitResult(fitted, "exponential", _rmse(fitted, v, c))


def fit_piecewise(
    values: Sequence[float],
    costs: Sequence[float],
    segments: int = 6,
) -> FitResult:
    """Non-increasing piecewise-linear fit on binned means.

    Observations are grouped into ``segments`` equal-width value bins;
    bin-mean costs are made non-increasing by a running minimum (a simple
    one-sided isotonic projection), then used as breakpoints.
    """
    v, c = _as_arrays(values, costs)
    if segments < 2:
        raise CostFunctionError("need at least 2 segments")
    edges = np.linspace(v.min(), v.max(), segments + 1)
    xs: List[float] = []
    ys: List[float] = []
    for i in range(segments):
        mask = (
            (v >= edges[i]) & (v <= edges[i + 1])
            if i == segments - 1
            else (v >= edges[i]) & (v < edges[i + 1])
        )
        if not mask.any():
            continue
        xs.append(float((edges[i] + edges[i + 1]) / 2.0))
        ys.append(float(c[mask].mean()))
    if len(xs) < 2:
        raise CostFunctionError("observations collapse into a single bin")
    running = np.minimum.accumulate(ys)
    fitted = PiecewiseLinearCost(list(zip(xs, running)))
    return FitResult(fitted, "piecewise", _rmse(fitted, v, c))


def fit_attribute_cost(
    values: Sequence[float], costs: Sequence[float]
) -> FitResult:
    """Fit every family and return the best by RMSE.

    Example:
        >>> import numpy as np
        >>> v = np.linspace(0.1, 2.0, 50)
        >>> c = 3.0 / (v + 0.05)
        >>> fit_attribute_cost(v, c).family
        'reciprocal'
    """
    candidates: List[FitResult] = [fit_linear(values, costs)]
    for fitter in (fit_reciprocal, fit_exponential, fit_piecewise):
        try:
            candidates.append(fitter(values, costs))
        except CostFunctionError:
            continue
    return min(candidates, key=lambda r: r.rmse)
