"""Cost-based query planning for top-k product upgrading.

The paper leaves algorithm choice (probe-based vs join-based, NLB/CLB/ALB
join bounds) to the caller, but the right choice depends on catalog
statistics the library already tracks.  This package closes that gap:

* :mod:`repro.plan.stats` — a :class:`CatalogProfile` summarizing the
  catalogs (sizes, dimensionality, R-tree shape, estimated dominator
  skyline size) from :mod:`repro.rtree.stats`;
* :mod:`repro.plan.logical` — the :class:`LogicalPlan` describing *what*
  to compute, independent of *how*;
* :mod:`repro.plan.physical` — executable :class:`PhysicalPlan`
  alternatives (method × bound) and their execution;
* :mod:`repro.plan.cost` — the :class:`PlanCostModel` mapping catalog
  statistics to estimated work counters and, through a checked-in
  unit-cost table, to seconds;
* :mod:`repro.plan.planner` — the :class:`Planner`: enumerate, cost,
  choose.  The choice is a pure function of the catalog profile and
  ``k``; observed runtimes are recorded as estimate-vs-actual error for
  ``metrics()`` and never change a later choice;
* :mod:`repro.plan.explain` — the EXPLAIN tree with estimated vs actual
  costs per node, rendered by ``skyup explain`` and ``explain=True``.

Layering: ``repro.plan`` may import ``repro.core`` and ``repro.rtree``
but never ``repro.serve`` (the serving engine imports the planner, not
the other way around) — enforced by lint rule SKY701.
"""

from repro.plan.cost import PlanCostModel, WorkEstimate
from repro.plan.explain import (
    ExplainReport,
    PlanNode,
    validate_explain_json,
)
from repro.plan.logical import LogicalPlan
from repro.plan.physical import PhysicalPlan, execute_plan
from repro.plan.planner import PlannedQuery, Planner, default_planner
from repro.plan.stats import CatalogProfile, profile_catalog

__all__ = [
    "CatalogProfile",
    "ExplainReport",
    "LogicalPlan",
    "PhysicalPlan",
    "PlanCostModel",
    "PlanNode",
    "PlannedQuery",
    "Planner",
    "WorkEstimate",
    "default_planner",
    "execute_plan",
    "profile_catalog",
    "validate_explain_json",
]
