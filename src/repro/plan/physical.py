"""The physical side of planning: *how* to compute, and execution.

A :class:`PhysicalPlan` pins every knob the planner chooses between —
method, join bound and per-pair bound mode.  The kernel-vs-scalar
join-list cutover is not one of them: it is the join's own constant
(``repro.core.join._VECTOR_JL_FROM``).
:func:`execute_plan` runs one against built indexes, so
:func:`repro.core.api.top_k_upgrades` and the serving engine share a
single execution path for planner-chosen plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.bounds import BOUND_NAMES, LBC_MODES
from repro.core.join import JoinUpgrader
from repro.core.probing import basic_probing, improved_probing
from repro.core.types import UpgradeConfig, UpgradeOutcome
from repro.costs.model import CostModel
from repro.exceptions import UnknownOptionError
from repro.rtree.tree import RTree

#: Methods a physical plan can name (the planner enumerates these).
PLAN_METHODS = ("join", "probing", "basic-probing")

_DEFAULT_CONFIG = UpgradeConfig()


@dataclass(frozen=True)
class PhysicalPlan:
    """One fully specified way to execute a top-k upgrade query."""

    method: str
    bound: str = "clb"
    lbc_mode: str = "corrected"

    def __post_init__(self) -> None:
        if self.method not in PLAN_METHODS:
            raise UnknownOptionError("method", self.method, PLAN_METHODS)
        if self.bound not in BOUND_NAMES:
            raise UnknownOptionError("bound", self.bound, BOUND_NAMES)
        if self.lbc_mode not in LBC_MODES:
            raise UnknownOptionError("lbc_mode", self.lbc_mode, LBC_MODES)

    @property
    def family(self) -> str:
        """Unit-cost family; the bound only scales work within it."""
        return self.method

    @property
    def label(self) -> str:
        """Stable display/feedback key, e.g. ``join[clb]`` or ``probing``."""
        if self.method == "join":
            return f"join[{self.bound}]"
        return self.method

    def describe(self) -> str:
        """EXPLAIN node line: the label plus non-default knobs."""
        if self.method == "join" and self.lbc_mode != "corrected":
            return f"{self.label} lbc={self.lbc_mode}"
        return self.label

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "bound": self.bound,
            "lbc_mode": self.lbc_mode,
            "label": self.label,
        }


def execute_plan(
    plan: PhysicalPlan,
    competitor_tree: RTree,
    products: Sequence[Sequence[float]],
    cost_model: CostModel,
    k: int,
    config: UpgradeConfig = _DEFAULT_CONFIG,
    max_entries: int = 32,
    product_tree: Optional[RTree] = None,
) -> UpgradeOutcome:
    """Run ``plan`` against a built competitor index.

    The product tree is only built (STR bulk load) when a join-family
    plan actually needs it — probing plans iterate ``products`` directly,
    which is exactly why the planner can prefer them on tiny catalogs.
    """
    if plan.method == "join":
        if product_tree is None:
            product_tree = RTree.bulk_load(products, max_entries=max_entries)
        upgrader = JoinUpgrader(
            competitor_tree,
            product_tree,
            cost_model,
            bound=plan.bound,
            config=config,
            lbc_mode=plan.lbc_mode,
        )
        return upgrader.run(k)
    if plan.method == "probing":
        return improved_probing(competitor_tree, products, cost_model, k, config)
    return basic_probing(competitor_tree, products, cost_model, k, config)
