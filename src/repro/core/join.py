"""Algorithm 4: the best-first R-tree join for top-k product upgrading.

Both the competitor set ``P`` and the product set ``T`` are R-tree indexed.
A min-heap orders *product-side* entries by a lower bound on the upgrade
cost of any product below them; each popped entry is either

* a **final leaf** (exact cost already computed, empty join list) — emitted
  as the next result: nothing left on the heap can beat its cost;
* a **leaf with a join list** (paper mode only) — its exact cost is
  computed by Algorithm 1 over the skyline of its dominators within the
  join-list subtrees, then it is re-pushed as final (lines 9-11, lazily,
  one product per pop);
* a **non-leaf with zero bound** (Heuristic 1) — expanded: each child
  inherits the subset of the join list overlapping its own anti-dominant
  region and is pushed with its own bound.  In corrected mode the children
  of a T-leaf are products, and they are priced at once instead: each
  product's dominator skyline comes from its filtered join list, one
  :func:`~repro.core.upgrade.upgrade_batch` pass prices the whole leaf
  (one :func:`~repro.core.upgrade.upgrade` call each with kernels off),
  and every product is pushed as final with its exact cost.  Corrected
  product-level LBCs escape one join-list entry, not the whole skyline,
  so they sit far below exact costs and do not prune (on the paper's
  layouts every product reached Algorithm 1 at k = 1, 5 and 50);
  computing them and round-tripping each product through the heap as a
  candidate was overhead.  Node-level bounds still decide which T-leaves
  are expanded at all;
* a **non-leaf with positive bound** (Heuristic 2) — one competitor-side
  entry is expanded instead (chosen by Heuristic 3 for NLB/CLB, Heuristic 4
  for ALB), its children are filtered against ``ADR(e_T.max)`` and checked
  for mutual dominance with the join list (lines 22–31), and the entry is
  re-pushed with a refreshed bound.

The traversal is *progressive*: results stream out in ascending cost order
without processing all of ``T`` (:meth:`JoinUpgrader.results`).

A caller that keeps the competitor skyline can *seed* the join with it
(``seed=``; :meth:`~repro.core.session.MarketSession.make_upgrader` does
so with kernels on).  The first join list is then the points of
``sky(P)`` inside ``ADR(root_T.max)``, as leaf entries, instead of
``[root_P]``.  The seed is complete: a product's dominator skyline is
``sky(D_t) = D_t ∩ sky(P)`` (:mod:`repro.skyline.maintained`), so each
of its points is a ``sky(P)`` point in the product's ADR, and every ADR
filter on the way down keeps it, because a product's ADR lies inside the
ADR of each T-node above it.  ``sky(P)`` is an antichain, so a T-leaf is
priced by the antichain rule, and a list of leaf entries has nothing for
Heuristic 2 to open: no competitor node is read, and the node bounds are
the per-pair LBCs against skyline points.  The answers equal the
unseeded join's; only the work differs.  Paper mode and every library
path build unseeded upgraders.

With kernels on and a join list past the crossover, each join step is one
broadcast over whole blocks instead of a mask call per entry: the
refinement's dominance checks of all children against the join list, the
expansion's ADR filters of all children, and the antichain skylines of all
products of a T-leaf.  The refinement loop is sequential — a child only
sees the join-list entries earlier children left — yet one broadcast
reproduces it exactly, because whether a child removes an entry does not
depend on any flag: the entries live at child ``i`` are those no earlier
child removes, a cumulative OR over the removal matrix
(:meth:`JoinUpgrader._refine_vector`).  Answers and every work counter
equal the scalar loops', which stay as the oracle (kernels off, or short
join lists).

Two cases the paper leaves implicit are resolved as documented in DESIGN.md:
a positive-bound node whose join list holds only leaf entries expands the
product-side entry (Heuristic 2 needs a non-leaf), and ``LBC(e_T, ∅) = 0``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import (
    BOUND_NAMES,
    LBC_MODES,
    Pair,
    join_list_bound,
    lbc,
    pair_bounds_vector,
    supports_vector_bounds,
)
from repro.core.dominators import (
    canonical_order,
    get_dominating_skyline_multi,
)
from repro.core.types import UpgradeConfig, UpgradeOutcome, UpgradeResult
from repro.core.upgrade import SlotTable, slot_table, upgrade, upgrade_batch
from repro.costs.model import CostModel
from repro.exceptions import ConfigurationError, UnknownOptionError
from repro.geometry.point import dominates
from repro.geometry.region import mbr_overlaps_adr
from repro.obs import clock
from repro.instrumentation import Counters, RunReport, Stopwatch, Timer
from repro.kernels.dominance import dominated_mask, dominating_mask
from repro.kernels.switch import kernels_enabled
from repro.obs import span
from repro.rtree.entry import Entry
from repro.rtree.tree import RTree

_DEFAULT_CONFIG = UpgradeConfig()

#: Heap finality markers.  Candidates pop *before* equal-cost finals: a
#: bound-c candidate may still produce another cost-c result, so draining
#: candidates first lets equal-cost finals (tie-broken by record id, the
#: third heap key) emit in canonical order.  The progressive stream is
#: therefore globally sorted by ``(cost, record_id)`` — the same order
#: the probing algorithms produce — so the planner's choice of physical
#: plan never changes the answer, only the work.
_CANDIDATE, _FINAL = 0, 1

#: Join lists at or above this size use the columnar kernels (measured
#: crossover of the batch evaluation vs the per-entry scalar loop,
#: including the cost of building the corner arrays).
_VECTOR_JL_FROM = 8


class JoinUpgrader:
    """Progressive top-k product upgrading via the R-tree join (Algorithm 4).

    Args:
        competitor_tree: R-tree ``R_P`` over the competitor set.
        product_tree: R-tree ``R_T`` over the upgrade-candidate set.
        cost_model: the product cost function ``f_p``.
        bound: join-list lower bound — ``"nlb"``, ``"clb"``, ``"alb"``
            (paper), or ``"max"`` (extension).
        config: Algorithm 1 configuration shared with the probing baselines.
        lbc_mode: ``"corrected"`` (default — valid per-pair lower bounds,
            results provably match the probing baseline) or ``"paper"``
            (the literal Case 3/4 formulas, which overestimate and may
            return more expensive products; see
            :mod:`repro.core.bounds`).
        vector_jl_from: join lists at or above this size take the columnar
            kernel paths; below it the scalar loops win.  Defaults to the
            measured crossover; tests pass other values to force one
            path.
        seed: the skyline of ``competitor_tree``'s points, if the caller
            maintains it.  The join then starts from those points as
            leaf entries instead of ``R_P``'s root and never opens a
            competitor node (see the module docstring).

    Example:
        >>> upgrader = JoinUpgrader(rp, rt, model, bound="clb")
        >>> top3 = upgrader.run(k=3)
        >>> [round(r.cost, 3) for r in top3.results]  # doctest: +SKIP
        [0.012, 0.013, 0.02]
    """

    def __init__(
        self,
        competitor_tree: RTree,
        product_tree: RTree,
        cost_model: CostModel,
        bound: str = "clb",
        config: UpgradeConfig = _DEFAULT_CONFIG,
        lbc_mode: str = "corrected",
        vector_jl_from: int = _VECTOR_JL_FROM,
        seed: Optional[Sequence[Tuple[float, ...]]] = None,
    ):
        if bound not in BOUND_NAMES:
            raise UnknownOptionError("bound", bound, BOUND_NAMES)
        if lbc_mode not in LBC_MODES:
            raise UnknownOptionError("lbc_mode", lbc_mode, LBC_MODES)
        if vector_jl_from < 1:
            raise ConfigurationError(
                f"vector_jl_from must be >= 1, got {vector_jl_from}"
            )
        if (
            not competitor_tree.is_empty()
            and competitor_tree.dims != product_tree.dims
        ):
            raise ConfigurationError(
                f"tree dimensionalities differ: {competitor_tree.dims} "
                f"vs {product_tree.dims}"
            )
        self.competitor_tree = competitor_tree
        self.product_tree = product_tree
        self.cost_model = cost_model
        self.bound = bound
        self.config = config
        self.lbc_mode = lbc_mode
        self.vector_jl_from = vector_jl_from
        self.seed = seed
        self.stats = Counters()
        self._vector_bounds = supports_vector_bounds(cost_model)
        self._seed_order: List[Tuple[float, ...]] = []
        self._seed_rows: Optional[np.ndarray] = None
        self._seed_entries: List[Entry] = []
        if seed is not None:
            # The seed's canonical order and array, built once: every
            # join list of a seeded run is a subset of the seed, and each
            # seed entry's record id is its point's row here.
            self._seed_order = canonical_order(seed)
            self._seed_rows = np.array(
                self._seed_order, dtype=np.float64
            ).reshape(len(self._seed_order), product_tree.dims)
            row_of = {p: i for i, p in enumerate(self._seed_order)}
            self._seed_entries = [
                Entry.for_point(p, row_of[tuple(p)]) for p in seed
            ]

    # -- public API ----------------------------------------------------------

    def run(self, k: int = 1) -> UpgradeOutcome:
        """Return the ``k`` cheapest upgrades (fewer if ``|T| < k``).

        The run report's ``extras["result_times"]`` records the elapsed time
        at which each successive result became available — the
        progressiveness measurements of the paper's Figures 5, 10, and 11
        read exactly this.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.stats = Counters()
        results: List[UpgradeResult] = []
        result_times: List[float] = []
        watch = Stopwatch()
        with Timer() as timer:
            for result in self.results(reset_stats=False):
                results.append(result)
                result_times.append(watch.split())
                if len(results) >= k:
                    break
        report = RunReport(
            f"join[{self.bound}]",
            timer.elapsed_s,
            self.stats,
            {"result_times": result_times},
        )
        return UpgradeOutcome(results, report)

    def results(self, reset_stats: bool = True) -> Iterator[UpgradeResult]:
        """Yield upgrades progressively, cheapest first, until ``T`` drains.

        Stop iterating once enough results arrived — the point of the join
        approach is that early termination skips most of both trees.
        """
        if reset_stats:
            self.stats = Counters()
        if self.product_tree.is_empty():
            return
        stats = self.stats
        counter = itertools.count()
        root_t = self.product_tree.root_entry()
        if self.seed is not None:
            initial_jl: List[Entry] = [
                e
                for e in self._seed_entries
                if mbr_overlaps_adr(e.mbr, root_t.mbr.high)
            ]
        elif self.competitor_tree.is_empty():
            initial_jl = []
        else:
            root_p = self.competitor_tree.root_entry()
            initial_jl = (
                [root_p]
                if mbr_overlaps_adr(root_p.mbr, root_t.mbr.high)
                else []
            )
        pairs = self._pair_bounds(root_t, initial_jl)
        cost = join_list_bound(self.bound, pairs)
        heap: List[tuple] = []
        heapq.heappush(
            heap,
            (cost, _CANDIDATE, next(counter), root_t, initial_jl, pairs, None),
        )
        stats.heap_pushes += 1

        while heap:
            cost, finality, _, e_t, jl, pairs, upgraded = heapq.heappop(heap)
            stats.heap_pops += 1

            if e_t.is_leaf_entry:
                if finality == _FINAL:
                    yield UpgradeResult(
                        e_t.record_id, e_t.point, upgraded, cost
                    )
                    continue
                # Lines 9-11 (paper mode): exact cost from the join-list
                # dominator skyline.
                skyline = self._leaf_dominator_skyline(jl, e_t.point)
                (priced,) = self._price([e_t.point], [skyline])
                self._push_final(heap, e_t, priced)
                continue

            expandable = [e for e in jl if not e.is_leaf_entry]
            if cost <= 0.0 or not expandable:
                # Heuristic 1 (lines 13-20): expand the product-side entry.
                self._expand_product_entry(heap, counter, e_t, jl)
            else:
                # Heuristic 2 (lines 21-32): expand one competitor entry.
                picked = self._pick_competitor_entry(jl, pairs, expandable)
                new_jl, new_pairs = self._refine_join_list(
                    e_t, jl, pairs, picked
                )
                new_cost = join_list_bound(self.bound, new_pairs)
                heapq.heappush(
                    heap,
                    (
                        new_cost,
                        _CANDIDATE,
                        next(counter),
                        e_t,
                        new_jl,
                        new_pairs,
                        None,
                    ),
                )
                stats.heap_pushes += 1

    # -- internals -----------------------------------------------------------

    def _price(
        self,
        points: List[Tuple[float, ...]],
        skylines: List[List[Tuple[float, ...]]],
        owners: Optional[List[int]] = None,
    ) -> List[Tuple[float, Tuple[float, ...]]]:
        """Algorithm 1 for one product (paper mode) or a whole T-leaf.

        Product ``i``'s dominator skyline is ``skylines[owners[i]]``
        (``skylines[i]`` without ``owners``).  Several products with
        kernels on go through one :func:`~repro.core.upgrade.upgrade_batch`
        pass, which prices each listed skyline's slot candidates once.
        Otherwise each product gets its own
        :func:`~repro.core.upgrade.upgrade` call, the scalar oracle; the
        products whose skylines are equal, point for point, share one
        :func:`~repro.core.upgrade.slot_table`.  Both paths give the same
        ``(cost, upgraded)``.
        """
        if (
            len(points) > 1
            and kernels_enabled()
            and self.cost_model.supports_vectorization()
        ):
            return upgrade_batch(
                skylines, points, self.cost_model, self.config, self.stats,
                owners,
            )
        if owners is not None:
            skylines = [skylines[i] for i in owners]
        # A lone product builds its own table, or takes the kernel path.
        tables: Dict[Tuple[Tuple[float, ...], ...], SlotTable] = {}
        priced = []
        for skyline, point in zip(skylines, points):
            table = None
            if skyline and len(points) > 1:
                key = tuple(skyline)
                table = tables.get(key)
                if table is None:
                    table = tables[key] = slot_table(
                        skyline, self.cost_model, self.config
                    )
            priced.append(
                upgrade(
                    skyline, point, self.cost_model, self.config, self.stats,
                    table,
                )
            )
        return priced

    def _push_final(
        self,
        heap: List[tuple],
        e_t: Entry,
        priced: Tuple[float, Tuple[float, ...]],
    ) -> None:
        """Queue a priced product; it emits once nothing cheaper remains."""
        exact_cost, upgraded_point = priced
        heapq.heappush(
            heap,
            (exact_cost, _FINAL, e_t.record_id, e_t, [], [], upgraded_point),
        )
        self.stats.heap_pushes += 1

    def _leaf_dominator_skyline(
        self, jl: List[Entry], point: Tuple[float, ...]
    ) -> List[Tuple[float, ...]]:
        """Skyline of ``point``'s dominators within the join-list subtrees.

        Paper mode's lazy path.  A join list of leaf entries only, at or
        past the kernel crossover, takes the antichain rule as one
        broadcast (:meth:`_antichain_skylines` with one product); every
        other list takes the general multi-root traversal.
        """
        if kernels_enabled() and jl and len(jl) >= self.vector_jl_from and all(
            e.is_leaf_entry for e in jl
        ):
            self.stats.dominance_tests += len(jl)
            skylines, _ = self._antichain_skylines(jl, [point])
            return skylines[0]
        return self._traversal_skyline(jl, point)

    def _antichain_skyline(
        self, jl: List[Entry], point: Tuple[float, ...]
    ) -> List[Tuple[float, ...]]:
        """Dominator skyline of ``point`` from a join list of leaf entries.

        Such a list is an *antichain* by construction: every point
        entered it through the mutual-dominance check of lines 25-30
        against all coexisting entries, and product-side filtering only
        takes subsets.  Its points that dominate ``point`` are therefore
        already the dominator skyline.  Returned in the traversal's
        canonical order (:func:`~repro.core.dominators.canonical_order`),
        which Algorithm 1's slotting depends on at ties.  The scalar
        oracle of :meth:`_antichain_skylines`.
        """
        stats = self.stats
        with span(
            "join.leaf_skyline", jl_len=len(jl), kernel_or_scalar="scalar"
        ) as sp:
            stats.dominance_tests += len(jl)
            dominators = [e.point for e in jl if dominates(e.point, point)]
            skyline = canonical_order(dominators)
            stats.skyline_points += len(skyline)
            sp.set(skyline_size=len(skyline))
            return skyline

    def _antichain_skylines(
        self, jl: List[Entry], points: List[Tuple[float, ...]]
    ) -> Tuple[List[List[Tuple[float, ...]]], List[int]]:
        """Antichain-rule dominator skylines of several products at once.

        ``jl`` holds leaf entries only (see :meth:`_antichain_skyline`).
        Its points are put into canonical order once (in a seeded run,
        picked from the seed's order by record id); one
        :func:`~repro.kernels.dominance.dominating_mask` broadcast then
        marks, per product, which of them dominate it.  ``(sum, point)``
        totally orders distinct points, so filtering the one sorted list
        gives exactly what sorting and de-duplicating each product's own
        dominators gives.  Products with equal mask rows have equal
        skylines, so each distinct row is listed once.  The caller charges
        the dominance tests (one per entry of each product's own filtered
        list).

        Returns:
            ``(skylines, owners)``: product ``i``'s skyline is
            ``skylines[owners[i]]``.
        """
        with span(
            "join.leaf_skyline",
            jl_len=len(jl),
            products=len(points),
            kernel_or_scalar="kernel",
        ) as sp:
            if self._seed_rows is None:
                order = canonical_order(e.point for e in jl)
                rows = np.array(order, dtype=np.float64)
            else:
                picked = sorted({e.record_id for e in jl})
                order = [self._seed_order[i] for i in picked]
                rows = self._seed_rows[picked]
            skylines: List[List[Tuple[float, ...]]] = [[]]
            owners = [0] * len(points)
            size = 0
            if order and points:
                mask = dominating_mask(
                    rows, np.array(points, dtype=np.float64)
                )
                distinct: Dict[Tuple[bool, ...], int] = {}
                owners = [
                    distinct.setdefault(tuple(row), len(distinct))
                    for row in mask.tolist()
                ]
                skylines = [
                    list(itertools.compress(order, row)) for row in distinct
                ]
                size = int(mask.sum())
            self.stats.skyline_points += size
            sp.set(skyline_size=size)
            return skylines, owners

    def _traversal_skyline(
        self, jl: List[Entry], point: Tuple[float, ...]
    ) -> List[Tuple[float, ...]]:
        """Dominator skyline of ``point`` under a mixed join list."""
        with span(
            "join.leaf_skyline", jl_len=len(jl), kernel_or_scalar="scalar"
        ) as sp:
            skyline = get_dominating_skyline_multi(jl, point, self.stats)
            sp.set(skyline_size=len(skyline))
            return skyline

    def _pair_bounds(self, e_t: Entry, jl: List[Entry]) -> List[Pair]:
        """LBC of ``e_t`` against each join-list entry.

        One batched ``(|JL|, d)`` kernel evaluation when kernels are on and
        the join list is past the dispatch-overhead crossover; the scalar
        per-entry loop (also the oracle) otherwise.
        """
        t_low = e_t.mbr.low
        stats = self.stats
        if (
            kernels_enabled()
            and self._vector_bounds
            and len(jl) >= self.vector_jl_from
        ):
            with stats.timed("kernel.pair_bounds"):
                lows, highs = self._corners(jl)
                return pair_bounds_vector(
                    t_low, lows, highs, self.cost_model, stats,
                    self.lbc_mode,
                )
        with stats.timed("scalar.pair_bounds"):
            return [
                lbc(
                    t_low,
                    e.mbr.low,
                    e.mbr.high,
                    self.cost_model,
                    stats,
                    self.lbc_mode,
                )
                for e in jl
            ]

    def _corners(self, jl: List[Entry]) -> Tuple[np.ndarray, np.ndarray]:
        """The low and high corners of ``jl``'s entries as two arrays.

        In a seeded run every entry is a seed point, whose corners are
        its row of the seed array.
        """
        if self._seed_rows is not None:
            rows = self._seed_rows[[e.record_id for e in jl]]
            return rows, rows
        lows = np.array([e.mbr.low for e in jl], dtype=np.float64)
        highs = np.array([e.mbr.high for e in jl], dtype=np.float64)
        return lows, highs

    def _expand_product_entry(
        self,
        heap: List[tuple],
        counter: "itertools.count",
        e_t: Entry,
        jl: List[Entry],
    ) -> None:
        """Lines 14-20: push each child of ``e_t`` with its filtered list.

        With kernels on and the join list past the crossover, every
        child's ADR filter comes from one ``(children, |JL|)`` broadcast.
        In corrected mode the children of a T-leaf are priced at once and
        pushed as finals (:meth:`_price_leaf`): their product-level LBCs
        do not prune (see the module docstring), so computing them only
        delays the Algorithm 1 call every product gets anyway.
        """
        stats = self.stats
        stats.node_accesses += 1
        children = e_t.child.entries
        vector = kernels_enabled() and len(jl) >= self.vector_jl_from
        price = self.lbc_mode == "corrected" and e_t.child.is_leaf
        with span(
            "join.expand",
            jl_len=len(jl),
            bound_kind=self.bound,
            children=len(children),
            kernel_or_scalar="kernel" if vector else "scalar",
        ):
            if vector:
                jl_lows, _ = self._corners(jl)
                child_highs = np.array(
                    [child.mbr.high for child in children], dtype=np.float64
                )
                adr = (jl_lows[None, :, :] <= child_highs[:, None, :]).all(
                    axis=2
                )
                kept = adr.sum(axis=1).tolist()
                stats.entries_pruned += len(jl) * len(children) - sum(kept)
                if price and all(e.is_leaf_entry for e in jl):
                    # Every child's list is all leaf entries: only its
                    # length is needed (the antichain rule's tests).
                    stats.dominance_tests += sum(kept)
                    self._price_leaf(heap, jl, children, None, vector)
                    return
                child_jls = [
                    list(itertools.compress(jl, row)) for row in adr.tolist()
                ]
            else:
                child_jls = [
                    [e for e in jl if mbr_overlaps_adr(e.mbr, child.mbr.high)]
                    for child in children
                ]
                for child_jl in child_jls:
                    stats.entries_pruned += len(jl) - len(child_jl)
            if price:
                self._price_leaf(heap, jl, children, child_jls, vector)
                return
            for child, child_jl in zip(children, child_jls):
                child_pairs = self._pair_bounds(child, child_jl)
                child_cost = join_list_bound(self.bound, child_pairs)
                heapq.heappush(
                    heap,
                    (
                        child_cost,
                        _CANDIDATE,
                        next(counter),
                        child,
                        child_jl,
                        child_pairs,
                        None,
                    ),
                )
                stats.heap_pushes += 1

    def _price_leaf(
        self,
        heap: List[tuple],
        jl: List[Entry],
        children: List[Entry],
        child_jls: Optional[List[List[Entry]]],
        vector: bool,
    ) -> None:
        """Price every product of a T-leaf and push each as final.

        A product's dominator skyline comes from its filtered join list:
        by the antichain rule when the list holds leaf entries only, by
        the multi-root traversal otherwise.  With ``vector`` set, every
        antichain product of the leaf is served by one
        :meth:`_antichain_skylines` call over the leaf entries of the
        T-leaf's join list ``jl``: a point that dominates a product lies
        in the product's ADR, so the product's own filter drops none of
        its dominators.  ``child_jls`` is None when ``jl`` holds leaf
        entries only; the caller has then charged the dominance tests.
        Without ``vector``, each product takes the scalar
        :meth:`_antichain_skyline`, the oracle.
        """
        points = [child.point for child in children]
        if not vector:
            skylines = [
                self._antichain_skyline(child_jl, point)
                if all(e.is_leaf_entry for e in child_jl)
                else self._traversal_skyline(child_jl, point)
                for point, child_jl in zip(points, child_jls)
            ]
            priced = self._price(points, skylines)
        elif child_jls is None:
            skylines, owners = self._antichain_skylines(jl, points)
            priced = self._price(points, skylines, owners)
        else:
            antichain = [
                i
                for i, child_jl in enumerate(child_jls)
                if all(e.is_leaf_entry for e in child_jl)
            ]
            self.stats.dominance_tests += sum(
                len(child_jls[i]) for i in antichain
            )
            skylines, shared = self._antichain_skylines(
                [e for e in jl if e.is_leaf_entry],
                [points[i] for i in antichain],
            )
            owners = [-1] * len(points)
            for i, owner in zip(antichain, shared):
                owners[i] = owner
            for i, (point, child_jl) in enumerate(zip(points, child_jls)):
                if owners[i] < 0:
                    owners[i] = len(skylines)
                    skylines.append(self._traversal_skyline(child_jl, point))
            priced = self._price(points, skylines, owners)
        for child, result in zip(children, priced):
            self._push_final(heap, child, result)

    def _pick_competitor_entry(
        self,
        jl: List[Entry],
        pairs: List[Pair],
        expandable: List[Entry],
    ) -> Entry:
        """Heuristics 3/4: choose which join-list entry to open.

        NLB / CLB pick the non-leaf entry with the smallest positive bound;
        ALB picks the non-leaf entry whose bound equals the aggregate bound;
        MAX picks the non-leaf entry with the largest bound.  Whenever the
        designated entry does not exist among non-leaf entries (the paper's
        heuristics silently assume it does), fall back to the smallest
        positive — then smallest overall — non-leaf bound.
        """
        by_entry = {id(e): b for e, (b, _) in zip(jl, pairs)}
        nonleaf = [(by_entry[id(e)], e) for e in expandable]
        if self.bound == "max":
            return max(nonleaf, key=lambda item: item[0])[1]
        if self.bound == "alb":
            aggregate = join_list_bound(self.bound, pairs)
            for bound_value, entry in nonleaf:
                if bound_value == aggregate:
                    return entry
        positive = [(b, e) for b, e in nonleaf if b > 0.0]
        pool = positive if positive else nonleaf
        return min(pool, key=lambda item: item[0])[1]

    def _refine_join_list(
        self,
        e_t: Entry,
        jl: List[Entry],
        pairs: List[Pair],
        picked: Entry,
    ) -> Tuple[List[Entry], List[Pair]]:
        """Traced wrapper around :meth:`_refine_join_list_inner`."""
        use_vector = (
            kernels_enabled() and len(jl) - 1 >= self.vector_jl_from
        )
        with span(
            "join.refine",
            jl_len=len(jl),
            bound_kind=self.bound,
            kernel_or_scalar="kernel" if use_vector else "scalar",
        ) as sp:
            new_jl, new_pairs = self._refine_join_list_inner(
                e_t, jl, pairs, picked
            )
            sp.set(new_jl_len=len(new_jl))
            return new_jl, new_pairs

    def _refine_join_list_inner(
        self,
        e_t: Entry,
        jl: List[Entry],
        pairs: List[Pair],
        picked: Entry,
    ) -> Tuple[List[Entry], List[Pair]]:
        """Lines 22-31: replace ``picked`` by its surviving children.

        Each child is kept only if it overlaps ``ADR(e_T.max)`` and is not
        batch-dominated by a join-list entry (``e_P.max`` dominating
        ``child.min`` means every competitor under ``e_P`` dominates every
        point under the child); symmetrically, join-list entries
        batch-dominated by the child are dropped.

        Surviving entries keep their cached ``(bound, signature)`` pairs —
        an entry's LBC depends only on ``e_T.min`` and its own corners,
        both unchanged — so only the new children cost LBC work.

        Implementation note: the paper's inner loop breaks out as soon as a
        child is found dominated, leaving later join-list entries unchecked
        for removal.  Removing a wholly dominated entry is safe regardless
        (its points are dominated by the dominating entry's points,
        transitively so even when the dominating child is itself dropped),
        so this implementation applies *all* removals — a deterministic,
        strictly-stronger pruning with identical results.
        """
        stats = self.stats
        base: List[Tuple[Entry, Pair]] = [
            (e, pair) for e, pair in zip(jl, pairs) if e is not picked
        ]
        stats.node_accesses += 1
        corner = e_t.mbr.high
        t_low = e_t.mbr.low
        children = [
            c
            for c in picked.child.entries
            if mbr_overlaps_adr(c.mbr, corner)
        ]
        stats.entries_pruned += len(picked.child.entries) - len(children)

        n = len(base)
        if kernels_enabled() and n >= self.vector_jl_from:
            combined = self._refine_vector(t_low, base, children)
            return [e for e, _ in combined], [pair for _, pair in combined]
        added: List[Tuple[Entry, Pair]] = []

        for child in children:
            child_low = child.mbr.low
            child_high = child.mbr.high
            flag = False
            if n:
                survivors: List[Tuple[Entry, Pair]] = []
                for e_p, pair in base:
                    stats.dominance_tests += 2
                    if dominates(e_p.mbr.high, child_low):
                        flag = True
                        survivors.append((e_p, pair))
                        continue
                    if dominates(child_high, e_p.mbr.low):
                        stats.entries_pruned += 1
                        continue
                    survivors.append((e_p, pair))
                base = survivors
                n = len(base)
            # Mutual checks against previously surviving children.
            retained: List[Tuple[Entry, Pair]] = []
            for a_entry, a_pair in added:
                stats.dominance_tests += 2
                if not flag and dominates(a_entry.mbr.high, child_low):
                    flag = True
                if dominates(child_high, a_entry.mbr.low):
                    stats.entries_pruned += 1
                    continue
                retained.append((a_entry, a_pair))
            added = retained
            if flag:
                stats.entries_pruned += 1
                continue
            child_pair = lbc(
                t_low,
                child_low,
                child_high,
                self.cost_model,
                stats,
                self.lbc_mode,
            )
            added.append((child, child_pair))

        combined = base + added
        new_jl = [e for e, _ in combined]
        new_pairs = [pair for _, pair in combined]
        return new_jl, new_pairs

    def _refine_vector(
        self,
        t_low: Tuple[float, ...],
        base: List[Tuple[Entry, Pair]],
        children: List[Entry],
    ) -> List[Tuple[Entry, Pair]]:
        """The kernel path of lines 22-31: one broadcast per matrix.

        The scalar loop checks child ``i`` against the base entries still
        live after children ``0..i-1`` removed theirs.  Whether child
        ``i`` removes base entry ``j`` (``rem[i, j]``: ``child_high[i]``
        dominates ``base_low[j]``) depends on neither the flags nor the
        order, so the entries live at child ``i`` are exactly
        ``~OR_{i' < i} rem[i']`` — a cumulative OR shifted down one row —
        and ``flag_i = any(dom[i] & live_i)`` with ``dom[i, j]``:
        ``base_high[j]`` dominates ``child_low[i]``.  (No entry is both:
        dominating the child and being dominated by it would need
        ``base_high <= child_low <= child_high <= base_low``, strictly
        somewhere.)  Sibling checks read one children × children matrix.
        Every counter equals the scalar loop's; new children's LBCs stay
        scalar :func:`~repro.core.bounds.lbc` calls, like the loop's.
        Returns the surviving base entries, then the added children.
        """
        stats = self.stats
        if not children:
            return base
        base_lows = np.array([e.mbr.low for e, _ in base], dtype=np.float64)
        base_highs = np.array([e.mbr.high for e, _ in base], dtype=np.float64)
        child_lows = np.array([c.mbr.low for c in children], dtype=np.float64)
        child_highs = np.array(
            [c.mbr.high for c in children], dtype=np.float64
        )
        dom = dominating_mask(base_highs, child_lows)
        rem = dominated_mask(base_lows, child_highs)
        removed = np.logical_or.accumulate(rem, axis=0)
        live = np.ones_like(rem)
        live[1:] = ~removed[:-1]
        flags = (dom & live).any(axis=1).tolist()
        stats.dominance_tests += 2 * int(live.sum())
        stats.entries_pruned += int((rem & live).sum())
        # over[i][a]: child i's high corner dominates child a's low corner.
        over = dominated_mask(child_lows, child_highs).tolist()

        added: List[int] = []
        child_pairs = {}
        for i, child in enumerate(children):
            flag = flags[i]
            retained: List[int] = []
            for a in added:
                stats.dominance_tests += 2
                if not flag and over[a][i]:
                    flag = True
                if over[i][a]:
                    stats.entries_pruned += 1
                    continue
                retained.append(a)
            added = retained
            if flag:
                stats.entries_pruned += 1
                continue
            child_pairs[i] = lbc(
                t_low,
                child.mbr.low,
                child.mbr.high,
                self.cost_model,
                stats,
                self.lbc_mode,
            )
            added.append(i)
        survivors = [
            bp for bp, gone in zip(base, removed[-1].tolist()) if not gone
        ]
        return survivors + [(children[i], child_pairs[i]) for i in added]

    # -- sharded execution ----------------------------------------------------

    def shard_stream(self) -> "MergeableResultStream":
        """Wrap :meth:`results` for the scatter-gather top-k merge.

        A shard worker opens one stream per hosted shard; the coordinator
        pulls batches and uses the stream *frontier* as that shard's
        contribution to the global termination threshold.
        """
        return MergeableResultStream(self.results())


class MergeableResultStream:
    """A pull-based view of an ascending ``(cost, record_id)`` stream.

    The sharded engine's per-shard primitive.  Each shard runs the join
    over its *local* competitor partition and the *full* product tree, so
    its costs are lower bounds on the global cost (escaping a subset of
    the dominators can only be cheaper) and every product eventually
    appears in every shard's stream.  The coordinator's threshold merge
    needs exactly two things from a shard: batches of sighted
    ``(cost, record_id)`` pairs, and the :attr:`frontier` — the largest
    cost the stream has revealed, below which no *new* product can still
    emerge from this shard.

    The frontier starts at ``0.0`` (nothing revealed: any product may
    appear at any cost), tracks the last-yielded cost while live, and
    jumps to ``inf`` on exhaustion (every product has been sighted here;
    the shard constrains nothing further).
    """

    __slots__ = ("_it", "frontier", "exhausted")

    def __init__(self, results: Iterator[UpgradeResult]):
        self._it = results
        self.frontier = 0.0
        self.exhausted = False

    def next_batch(
        self, n: int, deadline: Optional[float] = None
    ) -> List[UpgradeResult]:
        """Pull up to ``n`` results, advancing the frontier.

        ``deadline`` (on the :data:`repro.obs.clock` timebase) makes the
        pull cooperative: it is checked before each result, so an
        expired budget returns a short batch — overshooting by at most
        one result's worth of join expansion (in corrected mode, one
        T-leaf priced in one pass).  Truncation is *safe* by
        construction: the frontier stays at the last yielded cost and
        ``exhausted`` stays ``False``, so the threshold merge simply
        learns less, never something wrong.
        """
        out: List[UpgradeResult] = []
        while len(out) < n:
            if deadline is not None and clock() >= deadline:
                break
            try:
                result = next(self._it)
            except StopIteration:
                self.exhausted = True
                self.frontier = float("inf")
                break
            self.frontier = result.cost
            out.append(result)
        return out
