"""One-call convenience API.

:func:`top_k_upgrades` accepts raw point collections, builds the required
R-tree(s) via STR bulk loading, dispatches to the chosen algorithm, and
returns an :class:`~repro.core.types.UpgradeOutcome`.  Library users with
long-lived indexes should instead construct
:class:`~repro.core.join.JoinUpgrader` (or call the probing functions)
directly to amortize index construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.bounds import BOUND_NAMES, LBC_MODES
from repro.core.join import JoinUpgrader
from repro.core.probing import basic_probing, improved_probing
from repro.core.types import UpgradeConfig, UpgradeOutcome
from repro.costs.model import CostModel, paper_cost_model
from repro.exceptions import EmptyDatasetError, UnknownOptionError
from repro.rtree.tree import RTree

#: Algorithm selector values accepted by :func:`top_k_upgrades`.
METHODS = ("auto", "join", "probing", "basic-probing")

_DEFAULT_CONFIG = UpgradeConfig()


def top_k_upgrades(
    competitors: Sequence[Sequence[float]],
    products: Sequence[Sequence[float]],
    k: int = 1,
    cost_model: Optional[CostModel] = None,
    method: str = "join",
    bound: str = "clb",
    config: UpgradeConfig = _DEFAULT_CONFIG,
    max_entries: int = 32,
    lbc_mode: str = "corrected",
    explain: bool = False,
    planner=None,
) -> UpgradeOutcome:
    """Solve the top-k product upgrading problem end to end.

    Args:
        competitors: the competitor set ``P`` (rows of points).
        products: the upgrade-candidate set ``T``; result record ids are
            row positions in this collection.
        k: number of cheapest-to-upgrade products to return.
        cost_model: the product cost function; defaults to the paper's
            summation of reciprocal attribute costs.
        method: ``"auto"`` (cost-based planner picks), ``"join"``
            (Algorithm 4), ``"probing"`` (improved probing), or
            ``"basic-probing"`` (Algorithm 2 verbatim).
        bound: join-list bound for the join method (ignored otherwise;
            with ``method="auto"`` the planner chooses the bound).
        config: Algorithm 1 configuration.
        max_entries: R-tree node capacity for the bulk-loaded indexes.
        lbc_mode: per-pair bound variant for the join method —
            ``"corrected"`` (default) or ``"paper"``; see
            :mod:`repro.core.bounds`.
        explain: attach an EXPLAIN tree (estimated vs actual costs per
            plan node) as ``outcome.report.extras["explain"]``, an
            :class:`~repro.plan.explain.ExplainReport`.  Works for fixed
            methods too — the tree then shows what the planner would
            have picked.
        planner: the :class:`~repro.plan.planner.Planner` to consult
            (``method="auto"`` / ``explain=True`` only); defaults to the
            shared process-wide planner.  Its choice depends on the
            catalog and ``k`` alone; the planner only tallies choices
            and estimate-vs-actual error across calls.

    Returns:
        The top-k results sorted by ascending upgrade cost, with a run
        report; ``report.extras["plan"]`` names the executed plan.

    Example:
        >>> import numpy as np
        >>> P = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
        >>> T = np.array([[0.9, 0.9], [0.6, 0.6]])
        >>> outcome = top_k_upgrades(P, T, k=1)
        >>> outcome.results[0].record_id
        1
    """
    # Validate every string selector up front — a typo fails here with
    # the valid choices listed, not deep inside index construction.
    if method not in METHODS:
        raise UnknownOptionError("method", method, METHODS)
    if bound not in BOUND_NAMES:
        raise UnknownOptionError("bound", bound, BOUND_NAMES)
    if lbc_mode not in LBC_MODES:
        raise UnknownOptionError("lbc_mode", lbc_mode, LBC_MODES)
    if len(products) == 0:
        raise EmptyDatasetError("the product set T is empty")
    dims = len(products[0])
    if cost_model is None:
        cost_model = paper_cost_model(dims)

    if len(competitors) == 0:
        # Degenerate but legal: nothing dominates anything, all costs are 0.
        competitor_tree = RTree(dims, max_entries=max_entries)
    else:
        competitor_tree = RTree.bulk_load(
            competitors, max_entries=max_entries
        )

    if method == "auto" or explain:
        return _planned_top_k(
            competitor_tree,
            products,
            cost_model,
            k,
            config,
            max_entries,
            method,
            bound,
            lbc_mode,
            explain,
            planner,
        )

    if method == "join":
        product_tree = RTree.bulk_load(products, max_entries=max_entries)
        upgrader = JoinUpgrader(
            competitor_tree, product_tree, cost_model, bound, config, lbc_mode
        )
        return upgrader.run(k)
    if method == "probing":
        return improved_probing(
            competitor_tree, products, cost_model, k, config
        )
    return basic_probing(competitor_tree, products, cost_model, k, config)


def _planned_top_k(
    competitor_tree: RTree,
    products: Sequence[Sequence[float]],
    cost_model: CostModel,
    k: int,
    config: UpgradeConfig,
    max_entries: int,
    method: str,
    bound: str,
    lbc_mode: str,
    explain: bool,
    planner,
) -> UpgradeOutcome:
    """Plan (or force), execute, observe, and optionally explain."""
    # Imported lazily: repro.plan builds on repro.core, not vice versa.
    from repro.plan import (
        LogicalPlan,
        PhysicalPlan,
        default_planner,
        execute_plan,
        profile_catalog,
    )
    from repro.plan.planner import attach_actual

    if planner is None:
        planner = default_planner()
    profile = profile_catalog(
        competitor_tree, len(products), competitor_tree.dims or
        len(products[0]), max_entries=max_entries,
    )
    logical = LogicalPlan(k=k, profile=profile, lbc_mode=lbc_mode)
    force = None
    if method != "auto":
        force = PhysicalPlan(method=method, bound=bound, lbc_mode=lbc_mode)
    planned = planner.plan(logical, force=force)
    outcome = execute_plan(
        planned.plan,
        competitor_tree,
        products,
        cost_model,
        k,
        config,
        max_entries,
    )
    planner.observe(planned, outcome.report.elapsed_s)
    outcome.report.extras["plan"] = planned.plan.label
    if explain:
        report = planned.explain()
        attach_actual(
            report, outcome.report.elapsed_s, outcome.report.counters
        )
        outcome.report.extras["explain"] = report
    return outcome
