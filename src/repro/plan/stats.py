"""Catalog statistics consumed by the planner's cost model.

A :class:`CatalogProfile` condenses everything the cost formulas need:
set sizes, dimensionality, R-tree shape (node counts, heights, fanout),
and the estimated dominator-skyline size Ŝ.  Profiling must stay cheap
relative to the queries it optimizes — the serving engine re-profiles
after every write — so a tree's shape comes from a walk over its nodes
alone (:func:`_tree_shape`), the competitor skyline from a strided
sample, and a product tree that was not built (the probing methods never
build one) is characterized analytically from its size alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.rtree.stats import estimate_skyline_size, sample_skyline_size
from repro.rtree.tree import RTree

#: STR bulk loading fills leaves nearly to capacity; dynamic trees settle
#: around two thirds.  The analytic node-count estimate splits the
#: difference.
_FILL_FACTOR = 0.8


@dataclass(frozen=True)
class CatalogProfile:
    """Everything the plan cost model knows about one catalog pair."""

    n_competitors: int
    n_products: int
    dims: int
    #: Estimated competitor-skyline size Ŝ — the planner's proxy for
    #: dominator-skyline sizes and join-list lengths.
    skyline_estimate: float
    competitor_nodes: int
    competitor_height: int
    competitor_fanout: float
    product_nodes: int
    product_height: int

    def describe(self) -> str:
        """Compact one-line rendering for EXPLAIN headers."""
        return (
            f"|P|={self.n_competitors} |T|={self.n_products} "
            f"d={self.dims} Ŝ≈{self.skyline_estimate:.1f}"
        )

    def to_dict(self) -> dict:
        """JSON-ready form (EXPLAIN output, metrics snapshots)."""
        return {
            "n_competitors": self.n_competitors,
            "n_products": self.n_products,
            "dims": self.dims,
            "skyline_estimate": round(self.skyline_estimate, 3),
            "competitor_nodes": self.competitor_nodes,
            "competitor_height": self.competitor_height,
            "competitor_fanout": round(self.competitor_fanout, 2),
            "product_nodes": self.product_nodes,
            "product_height": self.product_height,
        }


def _analytic_tree_shape(n: int, max_entries: int) -> tuple:
    """(nodes, height) of a hypothetical R-tree over ``n`` points."""
    if n == 0:
        return 1, 1
    fanout = max(2.0, max_entries * _FILL_FACTOR)
    nodes, level_count, height = 0, float(n), 0
    while True:
        level_count = max(1.0, math.ceil(level_count / fanout))
        nodes += int(level_count)
        height += 1
        if level_count <= 1.0:
            break
    return nodes, height


def _tree_shape(tree: RTree) -> tuple:
    """(nodes, height, leaves) of a non-empty ``tree``, visiting nodes only."""
    nodes = leaves = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes += 1
        if node.is_leaf:
            leaves += 1
        else:
            stack.extend(e.child for e in node.entries)
    return nodes, tree.height, leaves


def profile_catalog(
    competitor_tree: RTree,
    n_products: int,
    dims: int,
    product_tree: Optional[RTree] = None,
    max_entries: int = 32,
    sample: bool = True,
) -> CatalogProfile:
    """Profile a catalog pair for planning.

    Args:
        competitor_tree: the built competitor index ``R_P``.
        n_products: ``|T|``; the product tree itself is optional.
        dims: dimensionality of the attribute space.
        product_tree: pass when already built (e.g. by a session); its
            measured shape then replaces the analytic estimate.
        max_entries: node capacity assumed for the analytic product-tree
            shape when no tree is given.
        sample: refine the i.i.d. skyline prior with a strided sample of
            the competitor points (cheap; see
            :func:`repro.rtree.stats.sample_skyline_size`).
    """
    n_p = len(competitor_tree)
    if competitor_tree.is_empty():
        skyline = 0.0
        competitor_nodes, competitor_height, fanout = 1, 1, 0.0
    else:
        competitor_nodes, competitor_height, leaves = _tree_shape(
            competitor_tree
        )
        fanout = n_p / leaves
        if sample:
            skyline = sample_skyline_size(competitor_tree, dims)
        else:
            skyline = estimate_skyline_size(n_p, dims)
    if product_tree is not None and not product_tree.is_empty():
        product_nodes, product_height, _ = _tree_shape(product_tree)
    else:
        product_nodes, product_height = _analytic_tree_shape(
            n_products, max_entries
        )
    return CatalogProfile(
        n_competitors=n_p,
        n_products=n_products,
        dims=dims,
        skyline_estimate=skyline,
        competitor_nodes=competitor_nodes,
        competitor_height=competitor_height,
        competitor_fanout=fanout,
        product_nodes=product_nodes,
        product_height=product_height,
    )
