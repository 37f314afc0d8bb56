"""Command-line interface.

Three subcommands::

    skyup generate --distribution anti_correlated --n 10000 --dims 3 out.csv
    skyup run --competitors P.csv --products T.csv --k 5 --method join
    skyup explain --n-competitors 2000 --n-products 800 --k 5
    skyup figure fig6a --scale 100
    skyup serve-bench --requests 2000 --save-json BENCH_serve.json
    skyup bench-kernels --competitors 100000 --dims 4 --method auto
    skyup bench-planner --save-json BENCH_planner.json
    skyup trace --requests 200 --slowest 3 --format chrome --out trace.json
    skyup lint --format json

``generate`` writes synthetic point sets; ``run`` solves one top-k upgrading
instance from CSV files; ``explain`` prints the cost-based planner's plan
tree — every costed physical alternative with estimated (and, after
execution, actual) costs (:mod:`repro.plan`); ``bench-planner`` measures
planner-chosen plans against every fixed plan
(:mod:`repro.bench.planner`); ``figure`` regenerates one of the paper's
experiment figures (see :mod:`repro.bench.figures` for ids and
EXPERIMENTS.md for the recorded outputs); ``serve-bench`` measures the
serving engine's cached-vs-cold throughput (:mod:`repro.serve.bench`);
``bench-kernels`` compares the columnar kernels against their scalar
oracles (:mod:`repro.bench.kernels`); ``trace`` replays a traced request
stream through the serving engine and dumps the slowest request traces
(:mod:`repro.obs`) as a span tree or Chrome Trace Event JSON; ``lint``
runs the project-specific
static analysis rules (:mod:`repro.analysis`) and exits non-zero on
unsuppressed findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="skyup",
        description=(
            "Top-k product upgrading (Lu & Jensen, ICDE 2012 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"skyup {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic point set")
    gen.add_argument("output", help="destination CSV path")
    gen.add_argument(
        "--distribution",
        default="independent",
        choices=["independent", "correlated", "anti_correlated"],
    )
    gen.add_argument("--n", type=int, default=10000, help="point count")
    gen.add_argument("--dims", type=int, default=3, help="dimensionality")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--low", type=float, default=0.0)
    gen.add_argument("--high", type=float, default=1.0)

    run = sub.add_parser("run", help="solve one top-k upgrading instance")
    run.add_argument("--competitors", required=True, help="CSV of P")
    run.add_argument("--products", required=True, help="CSV of T")
    run.add_argument("--k", type=int, default=1)
    run.add_argument(
        "--method",
        default="join",
        choices=["auto", "join", "probing", "basic-probing"],
    )
    run.add_argument(
        "--bound", default="clb", choices=["nlb", "clb", "alb", "max"]
    )
    run.add_argument(
        "--lbc-mode", default="corrected", choices=["corrected", "paper"]
    )
    run.add_argument(
        "--cost-offset",
        type=float,
        default=1e-3,
        help="offset of the reciprocal attribute cost 1/(v+offset)",
    )
    run.add_argument(
        "--show-counters",
        action="store_true",
        help="also print the work counters of the run",
    )

    cat = sub.add_parser(
        "catalog",
        help="single-set variant: upgrade a catalog's own products",
    )
    cat.add_argument("--catalog", required=True, help="CSV of the catalog")
    cat.add_argument("--k", type=int, default=1)
    cat.add_argument("--method", default="join", choices=["join", "probing"])
    cat.add_argument(
        "--bound", default="clb", choices=["nlb", "clb", "alb", "max"]
    )
    cat.add_argument("--cost-offset", type=float, default=1e-3)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument(
        "figure_id",
        help="figure id, e.g. fig4, fig6a, fig10 (use 'list' to enumerate)",
    )
    fig.add_argument(
        "--scale",
        type=float,
        default=None,
        help="cardinality divisor vs the paper (default per figure)",
    )
    fig.add_argument(
        "--quick",
        action="store_true",
        help="run a reduced sweep for a fast smoke check",
    )
    fig.add_argument(
        "--chart",
        action="store_true",
        help="render a log-scale ASCII bar chart instead of the table",
    )
    fig.add_argument(
        "--save-json",
        metavar="DIR",
        default=None,
        help="also write the figure's series as JSON under DIR",
    )

    tab = sub.add_parser("table", help="print one of the paper's tables")
    tab.add_argument(
        "table_id",
        help="table id: I, II, III, IV, or V ('list' to enumerate)",
    )

    rep = sub.add_parser(
        "report",
        help="render recorded figure JSONs as a Markdown appendix",
    )
    rep.add_argument(
        "results_dir",
        nargs="?",
        default="benchmarks/results",
        help="directory of fig*.json files (default: benchmarks/results)",
    )

    exp = sub.add_parser(
        "explain",
        help="show the planner's plan tree (estimated vs actual costs)",
    )
    exp.add_argument(
        "--competitors", default=None, help="CSV of P (omit for synthetic)"
    )
    exp.add_argument(
        "--products", default=None, help="CSV of T (omit for synthetic)"
    )
    exp.add_argument(
        "--n-competitors", type=int, default=2000,
        help="synthetic market size |P|",
    )
    exp.add_argument(
        "--n-products", type=int, default=800,
        help="synthetic catalog size |T|",
    )
    exp.add_argument("--dims", type=int, default=2)
    exp.add_argument(
        "--distribution",
        default="independent",
        choices=["independent", "correlated", "anti_correlated"],
    )
    exp.add_argument("--seed", type=int, default=2012)
    exp.add_argument("--k", type=int, default=5)
    exp.add_argument(
        "--method",
        default="auto",
        choices=["auto", "join", "probing", "basic-probing"],
        help="force a method (the tree still shows every candidate)",
    )
    exp.add_argument(
        "--bound", default="clb", choices=["nlb", "clb", "alb", "max"]
    )
    exp.add_argument(
        "--no-execute",
        action="store_true",
        help="plan only — skip running the chosen plan (no actual costs)",
    )
    exp.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=["text", "json"],
        help="text = ASCII plan tree; json = ExplainReport document",
    )
    exp.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the output to PATH instead of stdout",
    )

    pln = sub.add_parser(
        "bench-planner",
        help="planner-chosen plan vs every fixed physical plan",
    )
    pln.add_argument(
        "--dims",
        default="2,4",
        help="comma-separated dimensionalities (default: 2,4)",
    )
    pln.add_argument(
        "--k",
        default="1,10,50",
        help="comma-separated top-k depths (default: 1,10,50)",
    )
    pln.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing repetitions per fixed plan (best is reported)",
    )
    pln.add_argument("--seed", type=int, default=2012)
    pln.add_argument(
        "--quick",
        action="store_true",
        help="tiny catalogs and shallow k for a fast smoke check",
    )
    pln.add_argument(
        "--save-json",
        metavar="PATH",
        default=None,
        help="also write the full report as JSON to PATH",
    )

    srv = sub.add_parser(
        "serve-bench",
        help="measure the serving engine: cached vs cold throughput",
    )
    srv.add_argument(
        "--method",
        default="join",
        choices=["auto", "join", "probing"],
        help=(
            "engine execution strategy for whole-catalog top-k requests "
            "(auto = planner-chosen; the report names the chosen plans)"
        ),
    )
    srv.add_argument(
        "--competitors", type=int, default=4000, help="market size |P|"
    )
    srv.add_argument(
        "--products", type=int, default=1500, help="catalog size |T|"
    )
    srv.add_argument("--dims", type=int, default=3)
    srv.add_argument(
        "--distribution",
        default="independent",
        choices=["independent", "correlated", "anti_correlated"],
    )
    srv.add_argument(
        "--requests", type=int, default=2000, help="request-stream length"
    )
    srv.add_argument(
        "--hot-pool",
        type=int,
        default=64,
        help="size of the popular-product working set",
    )
    srv.add_argument(
        "--topk-every",
        type=int,
        default=25,
        help="issue a whole-catalog top-k every N requests (0 = never)",
    )
    srv.add_argument("--k", type=int, default=5, help="top-k depth")
    srv.add_argument("--seed", type=int, default=2012)
    srv.add_argument(
        "--processes",
        type=int,
        default=0,
        help=(
            "also replay through the sharded multi-process engine with "
            "N worker processes (0 = skip the sharded run)"
        ),
    )
    srv.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "shard count for the sharded run "
            "(default: one shard per process)"
        ),
    )
    srv.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "sharded run: fixed delay before a straggling shard RPC is "
            "hedged to a second attempt (default: adaptive, p95-based)"
        ),
    )
    srv.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help=(
            "sharded run: consecutive shard-RPC failures that trip a "
            "process's circuit breaker (0 = breakers off)"
        ),
    )
    srv.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="arm seeded fault injection at this per-point rate (0 = off)",
    )
    srv.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="fault-injection seed (default: --seed)",
    )
    srv.add_argument(
        "--fault-points",
        default="serve.cache,rtree.query",
        help="comma-separated injection points to arm",
    )
    srv.add_argument(
        "--save-json",
        metavar="PATH",
        default=None,
        help="also write the full report as JSON to PATH",
    )

    krn = sub.add_parser(
        "bench-kernels",
        help="compare the columnar kernels against their scalar oracles",
    )
    krn.add_argument(
        "--competitors", type=int, default=20000, help="market size |P|"
    )
    krn.add_argument(
        "--products", type=int, default=2000, help="catalog size |T|"
    )
    krn.add_argument("--dims", type=int, default=4)
    krn.add_argument(
        "--distribution",
        default="independent",
        choices=["independent", "correlated", "anti_correlated"],
    )
    krn.add_argument(
        "--bound",
        default="clb",
        help="join-list bound for the end-to-end join cell",
    )
    krn.add_argument(
        "--method",
        default="join",
        choices=["auto", "join", "probing", "basic-probing"],
        help=(
            "algorithm of the end-to-end cell (auto = planner-chosen; "
            "the report names the chosen physical plan)"
        ),
    )
    krn.add_argument("--seed", type=int, default=2012)
    krn.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repetitions per path (best is reported)",
    )
    krn.add_argument(
        "--save-json",
        metavar="PATH",
        default=None,
        help="also write the full report as JSON to PATH",
    )

    trc = sub.add_parser(
        "trace",
        help="run a traced workload and dump the slowest request traces",
    )
    trc.add_argument(
        "--competitors", type=int, default=2000, help="market size |P|"
    )
    trc.add_argument(
        "--products", type=int, default=800, help="catalog size |T|"
    )
    trc.add_argument("--dims", type=int, default=3)
    trc.add_argument(
        "--distribution",
        default="independent",
        choices=["independent", "correlated", "anti_correlated"],
    )
    trc.add_argument(
        "--requests", type=int, default=200, help="request-stream length"
    )
    trc.add_argument(
        "--hot-pool",
        type=int,
        default=32,
        help="size of the popular-product working set",
    )
    trc.add_argument(
        "--topk-every",
        type=int,
        default=25,
        help="issue a whole-catalog top-k every N requests (0 = never)",
    )
    trc.add_argument("--k", type=int, default=5, help="top-k depth")
    trc.add_argument("--seed", type=int, default=2012)
    trc.add_argument(
        "--workers", type=int, default=2, help="engine worker threads"
    )
    trc.add_argument(
        "--slowest",
        type=int,
        default=5,
        metavar="N",
        help="dump the N slowest traces (default: 5)",
    )
    trc.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=["text", "chrome"],
        help=(
            "text = indented span tree; chrome = Trace Event Format JSON "
            "for chrome://tracing or https://ui.perfetto.dev"
        ),
    )
    trc.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the dump to PATH instead of stdout",
    )

    lint = sub.add_parser(
        "lint",
        help="run the project-specific static analysis rules",
    )
    lint.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help=(
            "rule id (SKY101) or name (lock-discipline); repeat or "
            "comma-separate to select several (default: all rules)"
        ),
    )
    lint.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=["text", "json", "github"],
        help=(
            "report format; 'github' emits ::error workflow "
            "annotations for CI (default: text)"
        ),
    )
    lint.add_argument(
        "--root",
        default=".",
        help="repository root containing src/repro (default: cwd)",
    )
    lint.add_argument(
        "--deep",
        action="store_true",
        help=(
            "also run the interprocedural SKY1000 rules (lock-set "
            "dataflow, guard inference, deadline propagation)"
        ),
    )
    lint.add_argument(
        "--cache-dir",
        default=".skyup-cache",
        metavar="DIR",
        help=(
            "summary-cache directory for --deep, relative to --root "
            "(default: .skyup-cache; 'none' disables caching)"
        ),
    )
    lint.add_argument(
        "--baseline",
        nargs="?",
        const="lint-baseline.json",
        default=None,
        metavar="PATH",
        help=(
            "subtract known findings recorded in PATH "
            "(default path: lint-baseline.json)"
        ),
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data.generators import generate
    from repro.data.io import save_points_csv

    points = generate(
        args.distribution,
        args.n,
        args.dims,
        seed=args.seed,
        low=args.low,
        high=args.high,
    )
    save_points_csv(args.output, points)
    print(
        f"wrote {args.n} {args.distribution} points "
        f"({args.dims}-d, [{args.low}, {args.high}]) to {args.output}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.api import top_k_upgrades
    from repro.costs.model import paper_cost_model
    from repro.data.io import load_points_csv

    competitors, _ = load_points_csv(args.competitors)
    products, _ = load_points_csv(args.products)
    cost_model = paper_cost_model(products.shape[1], offset=args.cost_offset)
    outcome = top_k_upgrades(
        competitors,
        products,
        k=args.k,
        cost_model=cost_model,
        method=args.method,
        bound=args.bound,
        lbc_mode=args.lbc_mode,
    )
    plan = outcome.report.extras.get("plan")
    print(
        f"# {outcome.report.algorithm}: |P|={len(competitors)} "
        f"|T|={len(products)} k={args.k} "
        f"elapsed={outcome.report.elapsed_s:.4f}s"
        + (f" plan={plan}" if plan else "")
    )
    print("rank,record_id,cost,original,upgraded")
    for rank, r in enumerate(outcome.results, start=1):
        orig = ";".join(f"{v:.6g}" for v in r.original)
        upgr = ";".join(f"{v:.6g}" for v in r.upgraded)
        print(f"{rank},{r.record_id},{r.cost:.6g},{orig},{upgr}")
    if args.show_counters:
        for name, value in outcome.report.counters.as_dict().items():
            print(f"# {name}={value}")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    from repro.core.single_set import single_set_top_k, split_catalog
    from repro.costs.model import paper_cost_model
    from repro.data.io import load_points_csv

    catalog, _ = load_points_csv(args.catalog)
    cost_model = paper_cost_model(catalog.shape[1], offset=args.cost_offset)
    skyline_rows, candidates, _ = split_catalog(catalog)
    outcome = single_set_top_k(
        catalog,
        k=args.k,
        cost_model=cost_model,
        method=args.method,
        bound=args.bound,
    )
    print(
        f"# catalog of {len(catalog)}: {len(skyline_rows)} competitive, "
        f"{len(candidates)} candidates; {outcome.report.algorithm} "
        f"elapsed={outcome.report.elapsed_s:.4f}s"
    )
    print("rank,record_id,cost,original,upgraded")
    for rank, r in enumerate(outcome.results, start=1):
        orig = ";".join(f"{v:.6g}" for v in r.original)
        upgr = ";".join(f"{v:.6g}" for v in r.upgraded)
        print(f"{rank},{r.record_id},{r.cost:.6g},{orig},{upgr}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.core.api import top_k_upgrades
    from repro.costs.model import paper_cost_model
    from repro.plan import (
        LogicalPlan,
        PhysicalPlan,
        default_planner,
        profile_catalog,
    )
    from repro.rtree.tree import RTree

    from repro.exceptions import ConfigurationError

    try:
        for name in ("n_competitors", "n_products", "dims", "k"):
            flag = "--" + name.replace("_", "-")
            value = getattr(args, name)
            _require(flag, value, "must be >= 1", value >= 1)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if (args.competitors is None) != (args.products is None):
        print(
            "error: pass both --competitors and --products, or neither",
            file=sys.stderr,
        )
        return 2
    if args.competitors is not None:
        from repro.data.io import load_points_csv

        competitors, _ = load_points_csv(args.competitors)
        products, _ = load_points_csv(args.products)
    else:
        from repro.data.generators import paper_workload

        competitors, products = paper_workload(
            args.distribution,
            args.n_competitors,
            args.n_products,
            args.dims,
            seed=args.seed,
        )
    if args.no_execute:
        dims = products.shape[1] if hasattr(products, "shape") else len(
            products[0]
        )
        tree = RTree.bulk_load(competitors)
        profile = profile_catalog(tree, len(products), int(dims))
        planner = default_planner()
        force = None
        if args.method != "auto":
            force = PhysicalPlan(method=args.method, bound=args.bound)
        planned = planner.plan(
            LogicalPlan(k=args.k, profile=profile), force=force
        )
        report = planned.explain()
    else:
        dims = products.shape[1] if hasattr(products, "shape") else len(
            products[0]
        )
        outcome = top_k_upgrades(
            competitors,
            products,
            k=args.k,
            cost_model=paper_cost_model(int(dims)),
            method=args.method,
            bound=args.bound,
            explain=True,
        )
        report = outcome.report.extras["explain"]
    if args.fmt == "json":
        dump = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        dump = report.format_tree()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dump)
            fh.write("\n")
        print(f"[explain written to {args.out}]")
    else:
        print(dump)
    return 0


def _cmd_bench_planner(args: argparse.Namespace) -> int:
    from repro.bench.planner import format_planner_report, run_planner_bench
    from repro.exceptions import ConfigurationError, InvalidOptionValueError

    try:
        _require(
            "--repeats", args.repeats, "must be >= 1", args.repeats >= 1
        )
        try:
            dims_list = tuple(int(d) for d in args.dims.split(","))
        except ValueError:
            raise InvalidOptionValueError(
                "--dims", args.dims, "must be comma-separated integers"
            ) from None
        try:
            k_values = tuple(int(k) for k in args.k.split(","))
        except ValueError:
            raise InvalidOptionValueError(
                "--k", args.k, "must be comma-separated integers"
            ) from None
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kwargs = {
        "dims_list": dims_list,
        "k_values": k_values,
        "repeats": args.repeats,
        "seed": args.seed,
    }
    if args.quick:
        kwargs["sizes"] = (("small", 400, 160), ("large", 900, 360))
        kwargs["k_values"] = tuple(k for k in k_values if k <= 10) or (1,)
        kwargs["repeats"] = 1
    report = run_planner_bench(**kwargs)
    print(format_planner_report(report))
    if args.save_json:
        import json

        with open(args.save_json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"[report written to {args.save_json}]")
    summary = report["summary"]
    ok = summary["all_within_15pct_of_best"] and summary["never_worst"]
    return 0 if ok else 1


def _require(option: str, value: object, requirement: str, ok: bool) -> None:
    """Typed CLI option validation.

    Raises:
        InvalidOptionValueError: ``ok`` is false — the message carries
            the option name, offending value, and the requirement, so
            every subcommand renders the same diagnostic shape.
    """
    from repro.exceptions import InvalidOptionValueError

    if not ok:
        raise InvalidOptionValueError(option, value, requirement)


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.exceptions import ConfigurationError, UnknownOptionError
    from repro.reliability.faults import INJECTION_POINTS
    from repro.serve.bench import format_report, run_serve_bench

    fault_points = [
        p.strip() for p in args.fault_points.split(",") if p.strip()
    ]
    try:
        for name in ("competitors", "products", "requests", "k"):
            value = getattr(args, name)
            _require(f"--{name}", value, "must be >= 1", value >= 1)
        _require(
            "--fault-rate",
            args.fault_rate,
            "must be in [0, 1]",
            0.0 <= args.fault_rate <= 1.0,
        )
        _require(
            "--processes",
            args.processes,
            "must be >= 0 (0 skips the sharded run)",
            args.processes >= 0,
        )
        _require(
            "--shards",
            args.shards,
            "must be >= 0 (0 means one shard per process)",
            args.shards >= 0,
        )
        _require(
            "--shards",
            args.shards,
            f"must be >= --processes ({args.processes}) so every "
            "worker process owns at least one shard",
            not (args.processes and args.shards)
            or args.shards >= args.processes,
        )
        _require(
            "--shards",
            args.shards,
            "requires --processes > 0",
            not (args.shards and not args.processes),
        )
        _require(
            "--hedge-delay",
            args.hedge_delay,
            "must be >= 0",
            args.hedge_delay is None or args.hedge_delay >= 0,
        )
        _require(
            "--breaker-threshold",
            args.breaker_threshold,
            "must be >= 0 (0 disables breakers)",
            args.breaker_threshold >= 0,
        )
        for point in sorted(set(fault_points) - INJECTION_POINTS):
            raise UnknownOptionError(
                "--fault-points", point, sorted(INJECTION_POINTS)
            )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_serve_bench(
        n_competitors=args.competitors,
        n_products=args.products,
        dims=args.dims,
        distribution=args.distribution,
        n_requests=args.requests,
        hot_pool=args.hot_pool,
        topk_every=args.topk_every,
        k=args.k,
        seed=args.seed,
        fault_rate=args.fault_rate,
        fault_points=fault_points,
        fault_seed=args.fault_seed,
        method=args.method,
        processes=args.processes,
        shards=args.shards,
        hedge_delay_s=args.hedge_delay,
        breaker_threshold=args.breaker_threshold,
    )
    print(format_report(report))
    if args.save_json:
        import json

        with open(args.save_json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"[report written to {args.save_json}]")
    return 0


def _cmd_bench_kernels(args: argparse.Namespace) -> int:
    from repro.bench.kernels import format_kernel_report, run_kernel_bench
    from repro.core.bounds import BOUND_NAMES
    from repro.exceptions import ConfigurationError, UnknownOptionError

    try:
        for name in ("competitors", "products", "dims", "repeats"):
            value = getattr(args, name)
            _require(f"--{name}", value, "must be >= 1", value >= 1)
        if args.bound not in BOUND_NAMES:
            raise UnknownOptionError("bound", args.bound, BOUND_NAMES)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_kernel_bench(
        n_competitors=args.competitors,
        n_products=args.products,
        dims=args.dims,
        distribution=args.distribution,
        bound=args.bound,
        seed=args.seed,
        repeats=args.repeats,
        method=args.method,
    )
    print(format_kernel_report(report))
    if args.save_json:
        import json

        with open(args.save_json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"[report written to {args.save_json}]")
    return 0 if report["all_agree"] else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.exceptions import ConfigurationError
    from repro.obs import format_text, to_chrome_json
    from repro.serve.bench import run_trace_workload

    try:
        for name in (
            "competitors",
            "products",
            "requests",
            "k",
            "slowest",
            "workers",
        ):
            value = getattr(args, name)
            _require(f"--{name}", value, "must be >= 1", value >= 1)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    traces = run_trace_workload(
        n_competitors=args.competitors,
        n_products=args.products,
        dims=args.dims,
        distribution=args.distribution,
        n_requests=args.requests,
        hot_pool=args.hot_pool,
        topk_every=args.topk_every,
        k=args.k,
        seed=args.seed,
        workers=args.workers,
    )
    traces.sort(key=lambda t: t.duration_s, reverse=True)
    slowest = traces[: args.slowest]
    if args.fmt == "chrome":
        dump = to_chrome_json(slowest, indent=2)
    else:
        dump = format_text(slowest)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dump)
            fh.write("\n")
        print(
            f"[{len(slowest)} slowest of {len(traces)} traces "
            f"written to {args.out}]"
        )
    else:
        print(dump)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.engine import (
        format_github,
        format_json,
        format_text,
        iter_rules,
        load_baseline,
        run_lint,
        save_baseline,
    )
    from repro.exceptions import ConfigurationError

    if args.list_rules:
        for info in iter_rules():
            tag = " [deep]" if info.deep else ""
            print(f"{info.rule_id}  {info.name:28s} {info.doc}{tag}")
        return 0
    select = None
    if args.select:
        select = [
            token for group in args.select for token in group.split(",")
        ]
    root = Path(args.root).resolve()
    baseline_path = (
        root / args.baseline if args.baseline is not None else None
    )
    cache_dir = None
    if args.deep and args.cache_dir and args.cache_dir != "none":
        cache_dir = root / args.cache_dir
    try:
        baseline = None
        if baseline_path is not None and not args.update_baseline:
            baseline = load_baseline(baseline_path)
        ctx_out: list = []
        findings = run_lint(
            root,
            select=select,
            baseline=baseline,
            deep=args.deep,
            cache_dir=cache_dir,
            ctx_out=ctx_out,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = ctx_out[0].flow_stats if ctx_out else {}
    if stats:
        temp = "warm" if stats.get("warm") else "cold"
        print(
            f"[deep: {temp} cache, "
            f"{stats.get('summary_hits', 0)}/{stats.get('files', 0)} "
            f"file summaries reused, "
            f"{stats.get('seconds', 0.0):.2f}s analysis]",
            file=sys.stderr,
        )
    if args.update_baseline:
        target = baseline_path or root / "lint-baseline.json"
        save_baseline(target, findings)
        print(f"[baseline of {len(findings)} finding(s) written to {target}]")
        return 0
    if args.fmt == "json":
        print(format_json(findings))
    elif args.fmt == "github":
        print(format_github(findings))
    else:
        print(format_text(findings))
    return 1 if findings else 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench.figures import FIGURES, run_figure

    if args.figure_id == "list":
        for fid, spec in sorted(FIGURES.items()):
            print(f"{fid:8s} {spec.title}")
        return 0
    if args.figure_id not in FIGURES:
        print(
            f"unknown figure {args.figure_id!r}; run 'skyup figure list'",
            file=sys.stderr,
        )
        return 2
    result = run_figure(args.figure_id, scale=args.scale, quick=args.quick)
    if args.chart:
        from repro.bench.render import render_series_chart

        print(render_series_chart(result))
    else:
        print(result.format_table())
    if args.save_json:
        path = result.save_json(args.save_json)
        print(f"[series written to {path}]")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.bench.tables import TABLE_IDS, format_table

    if args.table_id == "list":
        for tid in TABLE_IDS:
            print(tid)
        return 0
    if args.table_id not in TABLE_IDS:
        print(
            f"unknown table {args.table_id!r}; choose from {TABLE_IDS}",
            file=sys.stderr,
        )
        return 2
    print(format_table(args.table_id))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "catalog":
            return _cmd_catalog(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "bench-planner":
            return _cmd_bench_planner(args)
        if args.command == "serve-bench":
            return _cmd_serve_bench(args)
        if args.command == "bench-kernels":
            return _cmd_bench_kernels(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "report":
            from repro.bench.report import render_report

            print(render_report(args.results_dir))
            return 0
        return _cmd_figure(args)
    except BrokenPipeError:  # pragma: no cover - e.g. `skyup ... | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
