"""The planner: enumerate, cost, choose.

:meth:`Planner.plan` evaluates every physical alternative against the
cost model and picks the cheapest (enumeration-order ties go to the
join with the default bound, so a toss-up catalog behaves exactly like
the pre-planner default).  The choice is a pure function of the catalog
profile, ``k`` and the checked-in unit-cost table: measured runtimes
never feed back into it, so two runs over the same catalog history make
the same choices and their work counters reproduce.
:meth:`Planner.observe` only records estimate-vs-actual per plan for
``metrics()``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.instrumentation import Counters
# perfbench hooks `repro.plan.planner:dominating_mask` by name; keep the
# name importable here although the planner no longer calls it.
from repro.kernels.dominance import dominating_mask  # noqa: F401
from repro.plan.cost import PlanCostModel, WorkEstimate
from repro.plan.explain import ExplainReport, PlanNode
from repro.plan.logical import LogicalPlan
from repro.plan.physical import PhysicalPlan

#: Enumeration order doubles as the tie-break: earlier wins on equal
#: estimates, so ``join[clb]`` — the library's historical default —
#: prevails unless something is measurably cheaper.
_CANDIDATE_ORDER: Tuple[Tuple[str, str], ...] = (
    ("join", "clb"),
    ("join", "alb"),
    ("join", "nlb"),
    ("probing", "clb"),
    ("basic-probing", "clb"),
)


@dataclass(frozen=True)
class CandidateEstimate:
    """One costed alternative, as enumerated by :meth:`Planner.plan`."""

    plan: PhysicalPlan
    work: WorkEstimate
    seconds: float


@dataclass(frozen=True)
class PlannedQuery:
    """The planner's answer: the chosen plan plus everything it beat."""

    logical: LogicalPlan
    plan: PhysicalPlan
    candidates: Tuple[CandidateEstimate, ...]
    forced: bool = False

    @property
    def estimated_seconds(self) -> float:
        for candidate in self.candidates:
            if candidate.plan == self.plan:
                return candidate.seconds
        return 0.0

    def explain(self) -> ExplainReport:
        """Build the EXPLAIN tree (no actuals yet; see ``attach_actual``)."""
        children = []
        for candidate in self.candidates:
            chosen = candidate.plan == self.plan
            node = PlanNode(
                label=candidate.plan.describe(),
                estimated={
                    "seconds": candidate.seconds,
                    **candidate.work.to_dict(),
                },
                chosen=chosen,
                detail=candidate.plan.to_dict(),
            )
            children.append(node)
        root = PlanNode(
            label=self.logical.describe()
            + (" (forced)" if self.forced else ""),
            estimated={"seconds": self.estimated_seconds},
            chosen=True,
            children=children,
        )
        return ExplainReport(
            tree=root,
            chosen=self.plan.label,
            profile=self.logical.profile.to_dict(),
        )


def attach_actual(
    report: ExplainReport,
    elapsed_s: float,
    counters: Optional[Counters] = None,
) -> ExplainReport:
    """Record measured cost on every executed node of an EXPLAIN tree.

    The root (the query) and the chosen candidate both executed; the
    losing candidates keep ``actual=None``.
    """
    actual: Dict[str, float] = {"seconds": elapsed_s}
    if counters is not None:
        actual.update(
            node_accesses=float(counters.node_accesses),
            dominance_tests=float(counters.dominance_tests),
            upgrade_calls=float(counters.upgrade_calls),
        )
    report.tree.actual = dict(actual)
    for child in report.tree.children:
        if child.chosen:
            child.actual = dict(actual)
    return report


@dataclass
class _PlanHealth:
    """Per-label estimate-vs-actual record."""

    observations: int = 0
    last_ratio: float = 1.0
    estimate_log_error: float = 0.0


class Planner:
    """Thread-safe cost-based plan selection.

    Planning reads only its arguments and the checked-in cost model; the
    lock guards the per-label choice and estimate-error tallies.
    """

    def __init__(self) -> None:
        self.cost_model = PlanCostModel()
        self._lock = threading.Lock()
        self._health: Dict[str, _PlanHealth] = {}  # guarded-by: _lock
        self._plans_chosen: Dict[str, int] = {}  # guarded-by: _lock

    # -- planning ----------------------------------------------------------

    def candidates(self, logical: LogicalPlan) -> List[PhysicalPlan]:
        """The physical alternatives enumerated for ``logical``."""
        return [
            PhysicalPlan(method=method, bound=bound, lbc_mode=logical.lbc_mode)
            for method, bound in _CANDIDATE_ORDER
        ]

    def plan(
        self,
        logical: LogicalPlan,
        force: Optional[PhysicalPlan] = None,
    ) -> PlannedQuery:
        """Cost every alternative and choose (or honor ``force``).

        ``force`` still costs the full candidate set — EXPLAIN on a fixed
        method shows what the planner *would* have picked.
        """
        plans = self.candidates(logical)
        if force is not None and all(p != force for p in plans):
            plans.append(force)
        estimates = [
            CandidateEstimate(
                plan,
                self.cost_model.estimate_work(plan, logical),
                self.cost_model.estimate_seconds(plan, logical),
            )
            for plan in plans
        ]
        if force is not None:
            chosen = force
        else:
            chosen = min(estimates, key=lambda c: c.seconds).plan
        with self._lock:
            self._plans_chosen[chosen.label] = (
                self._plans_chosen.get(chosen.label, 0) + 1
            )
        return PlannedQuery(
            logical=logical,
            plan=chosen,
            candidates=tuple(estimates),
            forced=force is not None,
        )

    # -- estimate-vs-actual ------------------------------------------------

    def observe(self, planned: PlannedQuery, elapsed_s: float) -> None:
        """Record one execution's actual/estimated ratio for ``metrics()``.

        The record never reaches :meth:`plan`.
        """
        estimated = planned.estimated_seconds
        if estimated <= 0 or elapsed_s <= 0:
            return
        ratio = elapsed_s / estimated
        with self._lock:
            health = self._health.setdefault(planned.plan.label, _PlanHealth())
            health.observations += 1
            health.last_ratio = ratio
            alpha = 0.3
            health.estimate_log_error = (
                (1 - alpha) * health.estimate_log_error
                + alpha * abs(float(np.log(ratio)))
            )

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Metrics snapshot (serving layer's ``planner`` section)."""
        with self._lock:
            return {
                "plans_chosen": dict(sorted(self._plans_chosen.items())),
                "plan_health": {
                    label: {
                        "observations": h.observations,
                        "last_ratio": round(h.last_ratio, 3),
                        "log_error_ewma": round(h.estimate_log_error, 3),
                    }
                    for label, h in sorted(self._health.items())
                },
                "cost_model": self.cost_model.to_dict(),
            }


_default_planner: Optional[Planner] = None
_default_planner_lock = threading.Lock()


def default_planner() -> Planner:
    """The process-wide planner used by ``top_k_upgrades(method="auto")``.

    One shared instance so one-shot API calls share their choice and
    estimate-error tallies; long-lived engines own private planners.
    """
    global _default_planner
    with _default_planner_lock:
        if _default_planner is None:
            _default_planner = Planner()
        return _default_planner
