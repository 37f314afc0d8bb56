"""The logical side of planning: *what* to compute.

A :class:`LogicalPlan` pairs the query shape (top-k over the current
catalogs) with the :class:`~repro.plan.stats.CatalogProfile` the cost
model will consult.  Physical concerns — which algorithm, which bound —
live in :mod:`repro.plan.physical`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.plan.stats import CatalogProfile


@dataclass(frozen=True)
class LogicalPlan:
    """A top-k upgrade query over profiled catalogs.

    Attributes:
        k: how many cheapest-to-upgrade products are requested.
        profile: catalog statistics at planning time.
        lbc_mode: the per-pair bound variant any join-family physical
            plan must use (a correctness setting, not a planner choice).
    """

    k: int
    profile: CatalogProfile
    lbc_mode: str = "corrected"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")

    def describe(self) -> str:
        """Header line of the EXPLAIN tree."""
        return f"topk k={self.k} {self.profile.describe()}"
