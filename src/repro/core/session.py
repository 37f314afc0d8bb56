"""A long-lived market session: mutable catalogs with incremental queries.

The one-shot APIs (:func:`repro.core.api.top_k_upgrades`,
:class:`~repro.core.join.JoinUpgrader`) rebuild nothing but also own
nothing: callers manage the trees.  :class:`MarketSession` is the
convenience layer a downstream application would actually keep around —
it owns the competitor and product R-trees, supports incremental updates
(competitors appear/disappear, products get added, upgraded products get
committed), and answers top-k upgrade queries against the current state.

Updates use the dynamic R-tree paths (Guttman insert / delete-condense);
queries run the join algorithm with valid bounds, so every answer agrees
with a from-scratch recomputation — which the test suite asserts after
randomized update interleavings.

On the kernel path, per-product dominator skylines and the top-k join's
first join list come from the competitor skyline the session maintains
(:mod:`repro.skyline.maintained`): built by the first such query, then
updated by each competitor mutation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.dominators import get_dominating_skyline
from repro.core.join import JoinUpgrader
from repro.core.types import UpgradeConfig, UpgradeOutcome, UpgradeResult
from repro.costs.model import CostModel, paper_cost_model
from repro.exceptions import ConfigurationError
from repro.geometry.point import validate_point
from repro.instrumentation import Counters
from repro.kernels.switch import kernels_enabled
from repro.obs import span
from repro.reliability.faults import maybe_inject
from repro.rtree.query import intersects_dominance_region
from repro.rtree.tree import RTree
from repro.skyline.maintained import SkylineSnapshot

Point = Tuple[float, ...]

_DEFAULT_CONFIG = UpgradeConfig()


@dataclass(frozen=True)
class MutationEvent:
    """One catalog mutation, as reported to session listeners.

    Attributes:
        side: ``"competitor"`` or ``"product"`` — which set changed.
        action: ``"add"``, ``"remove"``, or ``"upgrade"``.
        point: the point added or removed; for an upgrade, the *new* point.
        record_id: the mutated record's id.
        old_point: the replaced point (upgrades only).
    """

    side: str
    action: str
    point: Point
    record_id: int
    old_point: Optional[Point] = None

MutationListener = Callable[[MutationEvent], None]


class MarketSession:
    """Owns a competitor market and a product catalog; answers top-k queries.

    Args:
        dims: dimensionality of the product space.
        cost_model: the (monotonic) product cost function.
        bound: join-list bound used for queries.
        max_entries: R-tree node capacity.

    Example:
        >>> from repro.costs.model import paper_cost_model
        >>> session = MarketSession(2, paper_cost_model(2))
        >>> session.add_competitor((0.4, 0.6))
        0
        >>> session.add_product((1.0, 1.0))
        0
        >>> session.top_k(1).results[0].record_id
        0
    """

    def __init__(
        self,
        dims: int,
        cost_model: CostModel,
        bound: str = "clb",
        config: UpgradeConfig = _DEFAULT_CONFIG,
        max_entries: int = 32,
    ):
        if cost_model.dims != dims:
            raise ConfigurationError(
                f"cost model covers {cost_model.dims} dims, session "
                f"needs {dims}"
            )
        self.dims = dims
        self.cost_model = cost_model
        self.bound = bound
        self.config = config
        self._competitors = RTree(dims, max_entries=max_entries)
        self._products = RTree(dims, max_entries=max_entries)
        self._competitor_points: Dict[int, Point] = {}
        self._product_points: Dict[int, Point] = {}
        self._next_competitor_id = 0
        self._next_product_id = 0
        self.competitor_epoch = 0
        self.product_epoch = 0
        self._listeners: List[MutationListener] = []
        # sky(P), built lazily by the first kernel-path query
        # (a BBS over 20k competitors takes ~0.5 s, which set-up must not
        # pay); None until then.  Readers load the reference without the
        # lock: a snapshot is immutable and replaced in one swap.
        self._skyline: Optional[SkylineSnapshot] = (
            None
        )  # guarded-by: _skyline_lock
        self._skyline_lock = threading.Lock()

    @classmethod
    def from_points(
        cls,
        competitors: Sequence[Sequence[float]],
        products: Sequence[Sequence[float]],
        cost_model: Optional[CostModel] = None,
        bound: str = "clb",
        config: UpgradeConfig = _DEFAULT_CONFIG,
        max_entries: int = 32,
    ) -> "MarketSession":
        """Build a session with STR-bulk-loaded indexes (ids are row order).

        Much faster than repeated :meth:`add_competitor` /
        :meth:`add_product` for large initial catalogs; the serving layer's
        benchmarks start here.  Either collection may be empty.
        """
        rows_p = [tuple(float(v) for v in p) for p in competitors]
        rows_t = [tuple(float(v) for v in p) for p in products]
        dims = len(rows_t[0]) if rows_t else (
            len(rows_p[0]) if rows_p else None
        )
        if dims is None:
            raise ConfigurationError(
                "from_points needs at least one point to infer dims"
            )
        if cost_model is None:
            cost_model = paper_cost_model(dims)
        session = cls(
            dims, cost_model, bound=bound, config=config,
            max_entries=max_entries,
        )
        if rows_p:
            session._competitors = RTree.bulk_load(
                rows_p, max_entries=max_entries
            )
            session._competitor_points = dict(enumerate(rows_p))
            session._next_competitor_id = len(rows_p)
        if rows_t:
            session._products = RTree.bulk_load(
                rows_t, max_entries=max_entries
            )
            session._product_points = dict(enumerate(rows_t))
            session._next_product_id = len(rows_t)
        return session

    # -- epochs and listeners --------------------------------------------------

    @property
    def epoch(self) -> Tuple[int, int]:
        """Catalog version as ``(competitor_epoch, product_epoch)``.

        Each component increments once per successful mutation of its side;
        the serving layer keys cached answers on this pair.
        """
        return (self.competitor_epoch, self.product_epoch)

    def add_mutation_listener(self, listener: MutationListener) -> None:
        """Call ``listener(event)`` after every successful mutation."""
        self._listeners.append(listener)

    def remove_mutation_listener(self, listener: MutationListener) -> None:
        """Detach a previously registered listener (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, event: MutationEvent) -> None:
        for listener in list(self._listeners):
            listener(event)

    # -- market mutation ------------------------------------------------------

    def add_competitor(self, point: Sequence[float]) -> int:
        """Register a competitor product; returns its id."""
        p = validate_point(point, self.dims)
        cid = self._next_competitor_id
        self._next_competitor_id += 1
        self._competitors.insert(p, cid)
        self._competitor_points[cid] = p
        with self._skyline_lock:
            if self._skyline is not None:
                self._skyline = self._skyline.with_point(p)
        self.competitor_epoch += 1
        self._notify(MutationEvent("competitor", "add", p, cid))
        return cid

    def remove_competitor(self, competitor_id: int) -> bool:
        """Withdraw a competitor (e.g. discontinued); True if it existed."""
        point = self._competitor_points.pop(competitor_id, None)
        if point is None:
            return False
        removed = self._competitors.delete(point, competitor_id)
        if removed:
            with self._skyline_lock:
                if self._skyline is not None:
                    # The regrow's traversal runs on the kernel switch;
                    # scalar, it would test every candidate against the
                    # whole skyline in Python.  With kernels off the
                    # snapshot is unused: drop it, and let the next
                    # kernel-path query rebuild it.
                    self._skyline = (
                        self._skyline.without_point(
                            point, self._competitors
                        )
                        if kernels_enabled()
                        else None
                    )
            self.competitor_epoch += 1
            self._notify(
                MutationEvent("competitor", "remove", point, competitor_id)
            )
        return removed

    def add_product(self, point: Sequence[float]) -> int:
        """Register one of our own products; returns its id."""
        p = validate_point(point, self.dims)
        pid = self._next_product_id
        self._next_product_id += 1
        self._products.insert(p, pid)
        self._product_points[pid] = p
        self.product_epoch += 1
        self._notify(MutationEvent("product", "add", p, pid))
        return pid

    def remove_product(self, product_id: int) -> bool:
        """Drop a product from the catalog; True if it existed."""
        point = self._product_points.pop(product_id, None)
        if point is None:
            return False
        removed = self._products.delete(point, product_id)
        if removed:
            self.product_epoch += 1
            self._notify(
                MutationEvent("product", "remove", point, product_id)
            )
        return removed

    def commit_upgrade(self, result: UpgradeResult) -> None:
        """Apply an upgrade: the product now has its upgraded vector.

        Raises:
            ConfigurationError: unknown product id or a stale result (the
                stored point no longer matches ``result.original``).
        """
        current = self._product_points.get(result.record_id)
        if current is None:
            raise ConfigurationError(
                f"unknown product id {result.record_id}"
            )
        if current != result.original:
            raise ConfigurationError(
                f"stale upgrade for product {result.record_id}: catalog "
                f"has {current}, result was computed for {result.original}"
            )
        self._products.delete(current, result.record_id)
        self._products.insert(result.upgraded, result.record_id)
        self._product_points[result.record_id] = result.upgraded
        self.product_epoch += 1
        self._notify(
            MutationEvent(
                "product",
                "upgrade",
                result.upgraded,
                result.record_id,
                old_point=current,
            )
        )

    # -- queries ----------------------------------------------------------------

    @property
    def competitor_count(self) -> int:
        """Number of live competitors."""
        return len(self._competitor_points)

    @property
    def product_count(self) -> int:
        """Number of live products."""
        return len(self._product_points)

    def product_point(self, product_id: int) -> Optional[Point]:
        """Current attribute vector of a product (None if unknown)."""
        return self._product_points.get(product_id)

    def dominator_skyline(
        self, point: Sequence[float], stats: Optional[Counters] = None
    ) -> List[Point]:
        """Skyline of ``point``'s dominators in the current competitor set.

        Returned in ascending ``(coordinate sum, point)`` order, one copy
        per distinct point.  The dominators ``D_t`` of ``t`` are downward
        closed (``q ≺ p ≺ t`` gives ``q ≺ t``), so a point of ``D_t`` is
        dominated within ``D_t`` iff it is dominated within the whole
        competitor set ``P``: ``sky(D_t) = D_t ∩ sky(P)``.  With kernels
        on, the answer is therefore the rows of the maintained ``sky(P)``
        that dominate ``point`` — one broadcast.  With kernels off it is
        Algorithm 3's traversal, which stays the kernel guard's scalar
        oracle (the guard reruns products with kernels off).
        """
        p = validate_point(point, self.dims)
        if self._competitors.is_empty():
            return []
        if not kernels_enabled():
            return get_dominating_skyline(self._competitors, p, stats)
        maybe_inject("rtree.query")
        with span(
            "dominators.skyline", kernel_or_scalar="kernel", maintained=True
        ) as sp:
            result = self._competitor_skyline().dominators(p, stats)
            sp.set(skyline_size=len(result))
            return result

    def _competitor_skyline(self) -> SkylineSnapshot:
        """The maintained ``sky(P)``, built on first use.

        Pool threads call this concurrently under the engine's read lock;
        the double check builds it once.
        """
        # skyup: ignore[SKY101] — one reference load of an immutable snapshot
        snapshot = self._skyline
        if snapshot is None:
            with self._skyline_lock:
                snapshot = self._skyline
                if snapshot is None:
                    snapshot = SkylineSnapshot.build(self._competitors)
                    self._skyline = snapshot
        return snapshot

    def any_product_in_dominance_region(
        self, point: Sequence[float]
    ) -> bool:
        """True iff some product is weakly dominated by ``point``.

        A competitor mutation at ``point`` can only change upgrade answers
        for products inside its dominance region — this is the precise
        invalidation predicate used by the serving layer's top-k cache.
        """
        p = validate_point(point, self.dims)
        return intersects_dominance_region(self._products, p)

    @property
    def competitor_index(self) -> RTree:
        """The live competitor R-tree (read-only: mutate via the session)."""
        return self._competitors

    @property
    def product_index(self) -> RTree:
        """The live product R-tree (read-only: mutate via the session)."""
        return self._products

    def products_by_id(self) -> Tuple[List[int], List[Point]]:
        """Live products as parallel (ids, points) lists in id order.

        The probing algorithms take a plain point sequence and report
        positional record ids; callers use the id list to map positions
        back to catalog ids (ids are not contiguous after removals).
        """
        ids = sorted(self._product_points)
        return ids, [self._product_points[pid] for pid in ids]

    def competitors_by_id(self) -> Tuple[List[int], List[Point]]:
        """Live competitors as parallel (ids, points) lists in id order.

        The sharded engine partitions the competitor catalog from this
        snapshot (``record_id % n_shards``); id order makes the per-shard
        blocks deterministic functions of the catalog state.
        """
        ids = sorted(self._competitor_points)
        return ids, [self._competitor_points[cid] for cid in ids]

    def make_upgrader(self, bound: Optional[str] = None) -> JoinUpgrader:
        """A :class:`JoinUpgrader` over the session's live indexes.

        The serving layer drives the progressive stream itself (for
        deadline checks between results) and harvests the upgrader's
        counters afterwards; plain callers should prefer :meth:`top_k` /
        :meth:`stream`.  ``bound`` overrides the session default — the
        query planner passes its chosen bound here without reconfiguring
        the session.

        With kernels on, the join is seeded with the maintained ``sky(P)``
        (built here on first use, under ``_skyline_lock``): it starts
        from those points, which hold every product's dominator skyline,
        and opens no competitor node.  With kernels off it refines
        ``R_P`` join lists as the paper does — the kernel guard's
        oracle, which thereby stays independent of the snapshot.
        """
        return JoinUpgrader(
            self._competitors,
            self._products,
            self.cost_model,
            bound=self.bound if bound is None else bound,
            config=self.config,
            seed=(
                self._competitor_skyline().points
                if kernels_enabled()
                else None
            ),
        )

    def top_k(self, k: int = 1) -> UpgradeOutcome:
        """Top-k cheapest upgrades against the current market state."""
        if self._products.is_empty():
            return UpgradeOutcome([])
        return self.make_upgrader().run(k)

    def stream(self) -> Iterator[UpgradeResult]:
        """Progressively yield upgrades, cheapest first (current state)."""
        if self._products.is_empty():
            return iter(())
        return self.make_upgrader().results()

    def validate_indexes(self) -> None:
        """Structurally validate both R-trees (the reliability layer's
        budgeted post-mutation check).

        Occupancy is not enforced: bulk-loaded trees legitimately carry
        one underfull remainder node per level, and delete-condense keeps
        them valid without refilling.

        Raises:
            RTreeError: an index invariant is violated (corruption).
        """
        from repro.rtree.validate import validate_rtree

        validate_rtree(self._competitors, check_fill=False)
        validate_rtree(self._products, check_fill=False)

    def snapshot(self) -> Tuple[List[Point], List[Point]]:
        """Current (competitors, products) as point lists (id order)."""
        competitors = [
            self._competitor_points[cid]
            for cid in sorted(self._competitor_points)
        ]
        products = [
            self._product_points[pid]
            for pid in sorted(self._product_points)
        ]
        return competitors, products

    def __repr__(self) -> str:
        return (
            f"MarketSession(dims={self.dims}, "
            f"competitors={self.competitor_count}, "
            f"products={self.product_count}, bound={self.bound!r})"
        )
