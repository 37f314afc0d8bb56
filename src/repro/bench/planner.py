"""Planner-quality benchmark: chosen plan vs every fixed plan.

For each recorded workload (small/large catalog, d in {2, 4}, varying
k) every fixed physical plan is executed and timed, and the planner's
choice for that catalog profile and k is scored against those
measurements.  The acceptance bar — the planner-chosen plan stays
within 15% of the best fixed plan and is never the worst — is evaluated
per row and summarized.  ``skyup bench-planner`` is the CLI wrapper;
``benchmarks/results/BENCH_planner.json`` records a run at the
reference scale.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.types import UpgradeConfig
from repro.exceptions import ConfigurationError
from repro.plan import (
    LogicalPlan,
    PhysicalPlan,
    Planner,
    execute_plan,
    profile_catalog,
)

#: (name, |P|, |T|) of the recorded catalogs.  Small enough to finish in
#: minutes, large enough that the fixed plans separate clearly.
DEFAULT_SIZES: Tuple[Tuple[str, int, int], ...] = (
    ("small", 1200, 500),
    ("large", 6000, 1200),
)

#: The acceptance band: planner-chosen runtime / best fixed runtime.
WITHIN_FACTOR = 1.15

_CONFIG = UpgradeConfig()


def _fixed_plans(
    n_competitors: int, dims: int, include_basic: bool
) -> List[PhysicalPlan]:
    plans = [
        PhysicalPlan(method="join", bound="nlb"),
        PhysicalPlan(method="join", bound="clb"),
        PhysicalPlan(method="join", bound="alb"),
        PhysicalPlan(method="probing"),
    ]
    if include_basic:
        plans.append(PhysicalPlan(method="basic-probing"))
    return plans


def run_planner_bench(
    sizes: Sequence[Tuple[str, int, int]] = DEFAULT_SIZES,
    dims_list: Sequence[int] = (2, 4),
    k_values: Sequence[int] = (1, 10, 50),
    repeats: int = 2,
    seed: int = 2012,
    distribution: str = "independent",
    include_basic: Optional[bool] = None,
) -> Dict[str, object]:
    """Measure planner choices against the fixed-plan grid.

    Args:
        sizes: ``(name, |P|, |T|)`` catalogs to record.
        dims_list: dimensionalities to cover.
        k_values: result depths per workload.
        repeats: timing repetitions per fixed plan (best is kept).
        seed: workload seed.
        distribution: synthetic competitor distribution.
        include_basic: force basic probing into the fixed grid; by
            default it only runs on the smallest 2-d workload (it is
            quadratic and exists to be the recorded worst case).

    Returns:
        A JSON-ready report with one row per (workload, k) and a
        summary of the acceptance criteria.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    from repro.bench.workloads import synthetic_workload

    rows: List[Dict[str, object]] = []
    smallest = min(n_p for _, n_p, _ in sizes)
    for size_name, n_p, n_t in sizes:
        for dims in dims_list:
            wl = synthetic_workload(distribution, n_p, n_t, dims, seed=seed)
            basic = (
                include_basic
                if include_basic is not None
                else (n_p == smallest and dims == 2)
            )
            plans = _fixed_plans(n_p, dims, basic)
            profile = profile_catalog(
                wl.competitor_tree,
                len(wl.products),
                dims,
                product_tree=wl.product_tree,
            )
            # One untimed pass per plan warms caches and allocator pools
            # so the first timed row of a fresh workload is not charged
            # for them.
            for plan in plans:
                execute_plan(
                    plan,
                    wl.competitor_tree,
                    wl.products,
                    wl.cost_model,
                    min(k_values),
                    _CONFIG,
                    max_entries=wl.max_entries,
                    product_tree=wl.product_tree,
                )
            for k in k_values:
                # Interleave repeats round-robin across plans: slow
                # drift (frequency scaling, background load) then hits
                # every plan in a round equally instead of biasing
                # whichever plan was measured back-to-back during it;
                # best-of-rounds per plan discards the bad rounds.
                best = {plan.label: float("inf") for plan in plans}
                for _ in range(repeats):
                    for plan in plans:
                        outcome = execute_plan(
                            plan,
                            wl.competitor_tree,
                            wl.products,
                            wl.cost_model,
                            k,
                            _CONFIG,
                            max_entries=wl.max_entries,
                            product_tree=wl.product_tree,
                        )
                        best[plan.label] = min(
                            best[plan.label], outcome.report.elapsed_s
                        )
                rows.append(
                    _evaluate_row(
                        size_name, n_p, n_t, dims, k, profile, best
                    )
                )
    within = [bool(r["within_15pct_of_best"]) for r in rows]
    not_worst = [bool(r["not_worst"]) for r in rows]
    wins = sum(
        1 for r in rows if r["planner"]["chosen"] == r["best"]["label"]
    )
    return {
        "bench": "planner",
        "config": {
            "sizes": [list(s) for s in sizes],
            "dims": list(dims_list),
            "k_values": list(k_values),
            "repeats": repeats,
            "distribution": distribution,
            "seed": seed,
            "within_factor": WITHIN_FACTOR,
        },
        "rows": rows,
        "summary": {
            "rows": len(rows),
            "all_within_15pct_of_best": all(within),
            "never_worst": all(not_worst),
            "planner_chose_best": wins,
        },
    }


def _evaluate_row(
    size_name: str,
    n_p: int,
    n_t: int,
    dims: int,
    k: int,
    profile,
    measured: Dict[str, float],
) -> Dict[str, object]:
    """Score the planner's choice against the measured fixed plans."""
    chosen = Planner().plan(LogicalPlan(k=k, profile=profile)).plan.label
    # The chosen plan's runtime is its fixed measurement — identical
    # work, so choice quality is compared free of re-timing noise.
    planner_s = measured.get(chosen, float("inf"))
    by_time = sorted(measured.items(), key=lambda item: item[1])
    best_label, best_s = by_time[0]
    worst_label, worst_s = by_time[-1]
    return {
        "workload": f"{size_name}-d{dims}",
        "n_competitors": n_p,
        "n_products": n_t,
        "dims": dims,
        "k": k,
        "fixed_s": dict(measured),
        "planner": {"chosen": chosen, "seconds": planner_s},
        "best": {"label": best_label, "seconds": best_s},
        "worst": {"label": worst_label, "seconds": worst_s},
        "within_15pct_of_best": planner_s <= WITHIN_FACTOR * best_s,
        "not_worst": len(measured) == 1 or chosen != worst_label,
    }


def format_planner_report(report: Dict[str, object]) -> str:
    """Human-readable table for the CLI."""
    lines = [
        "planner bench "
        f"(within ≤ {report['config']['within_factor']}× best)",
        f"{'workload':<12} {'k':>4}  {'chosen':<16} {'best':<16} "
        f"{'ratio':>6}  ok",
    ]
    for row in report["rows"]:
        planner = row["planner"]
        best = row["best"]
        ratio = (
            planner["seconds"] / best["seconds"]
            if best["seconds"] > 0
            else float("inf")
        )
        ok = row["within_15pct_of_best"] and row["not_worst"]
        lines.append(
            f"{row['workload']:<12} {row['k']:>4}  "
            f"{planner['chosen']:<16} {best['label']:<16} "
            f"{ratio:>6.2f}  {'yes' if ok else 'NO'}"
        )
    summary = report["summary"]
    lines.append(
        f"rows={summary['rows']} "
        f"within={summary['all_within_15pct_of_best']} "
        f"never_worst={summary['never_worst']} "
        f"chose_best={summary['planner_chose_best']}"
    )
    return "\n".join(lines)
