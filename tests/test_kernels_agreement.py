"""Kernel-vs-scalar agreement: the scalar paths are the oracles.

Every columnar kernel (:mod:`repro.kernels`) has a scalar twin it must
agree with — bit-identically on chosen points, and to 1e-9 on costs (the
batch evaluation performs the same additions in the same order for
(weighted-)sum integrations, so in practice the costs match exactly too).
These tests fuzz the agreement across dimensions 2–5, duplicate rows, and
antichain edge cases, plus end-to-end runs with the global switch toggled.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import top_k_upgrades
from repro.core.bounds import (
    BOUND_NAMES,
    join_list_bound,
    lbc,
    pair_bounds_vector,
)
from repro.core.dominators import get_dominating_skyline
from repro.core.types import UpgradeConfig
from repro.core.upgrade import _upgrade_scalar, upgrade, upgrade_batch
from repro.costs.model import paper_cost_model
from repro.instrumentation import Counters
from repro.kernels import (
    PointBlock,
    SkylineBuffer,
    any_dominates,
    dominated_mask,
    dominating_mask,
    enumerate_candidates,
    enumerate_candidates_grouped,
    kernels_enabled,
    pair_bounds_block,
    pairwise_dominance,
    set_kernels_enabled,
    upgrade_kernel,
    upgrade_kernel_batch,
    use_kernels,
)
from repro.rtree.tree import RTree
from repro.skyline.bnl import bnl_skyline


def _scalar_dominates(p, q) -> bool:
    return all(a <= b for a, b in zip(p, q)) and any(
        a < b for a, b in zip(p, q)
    )


def _random_antichain_instance(seed: int, dims: int, duplicates: bool):
    """A dominator skyline (antichain) plus a product it fully dominates."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    cloud = 0.05 + rng.random((n, dims)) * 1.5
    skyline = bnl_skyline([tuple(row) for row in cloud])
    if duplicates:
        skyline = skyline + skyline[: max(1, len(skyline) // 2)]
    product = tuple(
        float(max(s[d] for s in skyline) + 0.25) for d in range(dims)
    )
    return skyline, product


# ---------------------------------------------------------------------------
# PointBlock


class TestPointBlock:
    def test_from_points_round_trip(self):
        pts = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
        block = PointBlock.from_points(pts)
        assert len(block) == 3
        assert block.points() == pts
        assert list(block.ids) == [0, 1, 2]
        assert block.point(1) == (3.0, 4.0)

    def test_append_grows_past_initial_capacity(self):
        block = PointBlock(2)
        for i in range(100):
            block.append((float(i), float(-i)), record_id=i * 10)
        assert len(block) == 100
        assert block.point(73) == (73.0, -73.0)
        assert block.id_of(73) == 730
        assert block.data.shape == (100, 2)

    def test_extend_and_subset(self):
        block = PointBlock(3)
        rows = [(float(i), 0.0, 1.0) for i in range(10)]
        block.extend(rows, ids=range(10))
        mask = block.data[:, 0] >= 5.0
        sub = block.subset(mask)
        assert sub.points() == rows[5:]
        assert list(sub.ids) == [5, 6, 7, 8, 9]

    def test_take(self):
        block = PointBlock.from_points([(0.0,), (1.0,), (2.0,)])
        taken = block.take([2, 0])
        assert taken.points() == [(2.0,), (0.0,)]

    def test_dim_mismatch_rejected(self):
        block = PointBlock(2)
        with pytest.raises(ValueError):
            block.append((1.0, 2.0, 3.0))


# ---------------------------------------------------------------------------
# Dominance masks vs the scalar predicate


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dominance_masks_match_scalar(dims, seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, size=(60, dims)).astype(float)  # many ties
    q = tuple(float(v) for v in rng.integers(0, 4, size=dims))
    dominating = dominating_mask(pts, q)
    dominated = dominated_mask(pts, q)
    for i, row in enumerate(pts):
        assert dominating[i] == _scalar_dominates(tuple(row), q)
        assert dominated[i] == _scalar_dominates(q, tuple(row))
    assert any_dominates(pts, q) == bool(dominating.any())


def test_pairwise_dominance_matrix():
    a = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    b = np.array([[1.0, 1.0], [0.0, 0.0]])
    mat = pairwise_dominance(a, b)
    for i in range(len(a)):
        for j in range(len(b)):
            assert mat[i, j] == _scalar_dominates(
                tuple(a[i]), tuple(b[j])
            )


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m", [0, 1, 17])
def test_dominance_masks_block_queries_match_pairwise(dims, seed, m):
    """The ``(m, d)`` query form is the ``(m, n)`` matrix, row by row."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, size=(40, dims)) / 4.0  # quarter-grid ties
    pts[5:10] = pts[0]  # duplicate rows
    queries = rng.integers(0, 4, size=(m, dims)) / 4.0
    if m > 1:
        queries[1] = pts[0]  # a query equal to a block row
    dominating = dominating_mask(pts, queries)
    dominated = dominated_mask(pts, queries)
    assert dominating.shape == dominated.shape == (m, len(pts))
    np.testing.assert_array_equal(
        dominating, pairwise_dominance(pts, queries).T
    )
    np.testing.assert_array_equal(
        dominated, pairwise_dominance(queries, pts)
    )
    for i, q in enumerate(queries):
        q = tuple(q)
        np.testing.assert_array_equal(dominating[i], dominating_mask(pts, q))
        np.testing.assert_array_equal(dominated[i], dominated_mask(pts, q))
        for j, row in enumerate(pts):
            assert dominating[i, j] == _scalar_dominates(tuple(row), q)
            assert dominated[i, j] == _scalar_dominates(q, tuple(row))


@pytest.mark.parametrize("dims", [2, 5])
def test_dominance_masks_block_queries_on_empty_block(dims):
    empty = np.empty((0, dims))
    queries = np.full((3, dims), 0.5)
    assert dominating_mask(empty, queries).shape == (3, 0)
    assert dominated_mask(empty, queries).shape == (3, 0)


def test_equal_points_never_dominate():
    pts = np.array([[1.0, 2.0], [1.0, 2.0]])
    assert not dominating_mask(pts, (1.0, 2.0)).any()
    assert not dominated_mask(pts, (1.0, 2.0)).any()


# ---------------------------------------------------------------------------
# SkylineBuffer: vectorized test == scalar test on both sides of the cutover


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_skyline_buffer_agrees_across_switch(dims):
    rng = np.random.default_rng(77)
    pts = [tuple(row) for row in 0.05 + rng.random((120, dims))]
    probes = [tuple(row) for row in 0.05 + rng.random((40, dims)) * 1.2]
    buf_on = SkylineBuffer(dims)
    buf_off = SkylineBuffer(dims)
    for p in bnl_skyline(pts):
        buf_on.add(p)
        buf_off.add(p)
    for q in probes:
        expected = any(_scalar_dominates(s, q) for s in buf_on.points)
        with use_kernels(True):
            assert buf_on.dominates_point(q, None) == expected
        with use_kernels(False):
            assert buf_off.dominates_point(q, None) == expected


def test_skyline_buffer_counter_is_path_independent():
    buf = SkylineBuffer(2)
    for i in range(64):
        buf.add((float(i), float(64 - i)))
    on, off = Counters(), Counters()
    with use_kernels(True):
        buf.dominates_point((10.0, 10.0), on)
    with use_kernels(False):
        buf.dominates_point((10.0, 10.0), off)
    assert on.dominance_tests == off.dominance_tests == 64


# ---------------------------------------------------------------------------
# Algorithm 1: kernel vs scalar, bit-identical points


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("duplicates", [False, True])
def test_upgrade_kernel_matches_scalar(dims, extended, duplicates):
    model = paper_cost_model(dims)
    config = UpgradeConfig(epsilon=1e-6, extended=extended)
    for seed in range(6):
        skyline, product = _random_antichain_instance(
            seed * 17 + dims, dims, duplicates
        )
        scalar_cost, scalar_point = _upgrade_scalar(
            skyline, product, model, config
        )
        kernel_cost, kernel_point = upgrade_kernel(
            skyline, product, model, config.epsilon, config.extended
        )
        assert kernel_point == scalar_point  # bit-identical tie resolution
        assert kernel_cost == pytest.approx(scalar_cost, abs=1e-9)


def test_upgrade_kernel_singleton_and_equal_rows():
    model = paper_cost_model(3)
    config = UpgradeConfig(epsilon=1e-6)
    product = (2.0, 2.0, 2.0)
    for skyline in (
        [(1.0, 1.5, 0.5)],
        [(1.0, 1.5, 0.5)] * 4,  # duplicate rows are a legal antichain
    ):
        scalar = _upgrade_scalar(skyline, product, model, config)
        kernel = upgrade_kernel(skyline, product, model, 1e-6, False)
        assert kernel[1] == scalar[1]
        assert kernel[0] == pytest.approx(scalar[0], abs=1e-9)


def test_enumerate_candidates_shape_and_order():
    skyline = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
    eps = 0.5
    block = enumerate_candidates(np.asarray(skyline), (4.0, 4.0), eps)
    assert block.shape == (2 * (1 + 2), 2)
    # dim 0: single-dimension candidate first, then the two slots.
    assert tuple(block[0]) == (0.5, 4.0)
    assert tuple(block[1]) == (1.5, 2.5)
    assert tuple(block[2]) == (2.5, 1.5)
    extended = enumerate_candidates(
        np.asarray(skyline), (4.0, 4.0), eps, extended=True
    )
    assert extended.shape == (2 * (1 + 2 + 1), 2)
    assert tuple(extended[3]) == (4.0, 0.5)  # tail keeps p's own d_0


def _batch_instance(rng, dims: int):
    """Products for one batch: empty, tied and duplicated skylines.

    Coordinates sit on a quarter grid, so skyline points share values
    on every dimension (exact ties in each per-dimension sort) and
    products tie with skyline values too.
    """
    skylines, products = [], []
    for _ in range(int(rng.integers(1, 14))):
        kind = int(rng.integers(0, 4))
        if kind == 0:  # no dominators: already competitive
            skylines.append([])
            products.append(tuple(float(v) for v in rng.random(dims)))
            continue
        n = int(rng.integers(1, 25))
        cloud = rng.integers(1, 8, size=(n, dims)) / 4.0
        skyline = bnl_skyline([tuple(map(float, row)) for row in cloud])
        if kind == 1:  # duplicated competitor points
            skyline = skyline + skyline[: max(1, len(skyline) // 2)]
        skylines.append(skyline)
        products.append(
            tuple(max(s[d] for s in skyline) + 0.25 for d in range(dims))
        )
    return skylines, products


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
@pytest.mark.parametrize("extended", [False, True])
def test_upgrade_kernel_batch_matches_scalar(dims, extended):
    """One batch pass gives each product ``upgrade()``'s scalar answer."""
    model = paper_cost_model(dims)
    config = UpgradeConfig(epsilon=1e-6, extended=extended)
    rng = np.random.default_rng(dims * 31 + int(extended))
    for _ in range(10):
        skylines, products = _batch_instance(rng, dims)
        with use_kernels(False):
            expected = [
                upgrade(sky, p, model, config)
                for sky, p in zip(skylines, products)
            ]
        rows = np.array(
            [s for sky in skylines for s in sky], dtype=np.float64
        ).reshape(-1, dims)
        counts = [len(sky) for sky in skylines]
        got = upgrade_kernel_batch(
            rows, counts, np.array(products), model,
            config.epsilon, config.extended,
        )
        assert [pt for _, pt in got] == [pt for _, pt in expected]
        for (cost, _), (oracle_cost, _) in zip(got, expected):
            assert cost == pytest.approx(oracle_cost, abs=1e-9)
        stats = Counters()
        checked = UpgradeConfig(
            epsilon=1e-6, extended=extended, validate=True
        )
        assert upgrade_batch(
            skylines, products, model, checked, stats
        ) == got
        assert stats.upgrade_calls == len(products)


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
def test_enumerate_candidates_grouped_shares_slot_rows(dims):
    """Products sharing a skyline read its slot rows from one copy."""
    rng = np.random.default_rng(dims)
    skylines = [sky for sky in _batch_instance(rng, dims)[0] if sky]
    skylines += [skylines[0]]  # equal skylines listed twice stay apart
    owners = [int(o) for o in rng.integers(0, len(skylines), size=12)]
    products = [
        tuple(max(s[d] for s in skylines[o]) + 0.25 for d in range(dims))
        for o in owners
    ]
    for extended in (False, True):
        rows, gather, starts = enumerate_candidates_grouped(
            np.array([s for sky in skylines for s in sky]),
            [len(sky) for sky in skylines],
            owners,
            np.array(products),
            0.5,
            extended,
        )
        per_product = dims * (1 + int(extended))
        slots = sum(dims * (len(sky) - 1) for sky in skylines)
        assert len(rows) == slots + per_product * len(products)
        assert starts[-1] == len(gather)
        for i, (o, p) in enumerate(zip(owners, products)):
            single = enumerate_candidates(
                np.array(skylines[o]), p, 0.5, extended
            )
            got = rows[gather[starts[i] : starts[i + 1]]]
            assert np.array_equal(got, single)


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_upgrade_end_to_end_switch_agreement(seed, dims, extended):
    """Public ``upgrade`` with the switch on vs off — same answers."""
    skyline, product = _random_antichain_instance(seed, dims, False)
    model = paper_cost_model(dims)
    config = UpgradeConfig(epsilon=1e-6, extended=extended, validate=True)
    with use_kernels(True):
        cost_on, point_on = upgrade(skyline, product, model, config)
    with use_kernels(False):
        cost_off, point_off = upgrade(skyline, product, model, config)
    assert point_on == point_off
    assert cost_on == pytest.approx(cost_off, abs=1e-9)


# ---------------------------------------------------------------------------
# Algorithm 3 and the join-list bounds


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_get_dominating_skyline_switch_agreement(dims):
    rng = np.random.default_rng(dims * 101)
    pts = 0.05 + rng.random((400, dims))
    tree = RTree.bulk_load(pts, max_entries=8)
    for row in 0.05 + rng.random((25, dims)) * 1.8:
        t = tuple(float(v) for v in row)
        with use_kernels(True):
            on = get_dominating_skyline(tree, t, Counters())
        with use_kernels(False):
            off = get_dominating_skyline(tree, t, Counters())
        assert on == off  # identical points, identical order


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5))
@settings(max_examples=50, deadline=None)
def test_pair_bounds_vector_matches_scalar_lbc(seed, dims):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    model = paper_cost_model(dims)
    t_low = tuple(0.05 + rng.random(dims) * 2.0)
    lows = 0.05 + rng.random((n, dims)) * 2.0
    highs = lows + rng.random((n, dims)) * 0.8
    vector = pair_bounds_vector(t_low, lows, highs, model)
    scalar = [
        lbc(t_low, tuple(lo), tuple(hi), model)
        for lo, hi in zip(lows, highs)
    ]
    assert len(vector) == len(scalar)
    for (vb, vs), (sb, ss) in zip(vector, scalar):
        assert vs == ss  # identical classification signatures
        assert vb == pytest.approx(sb, abs=1e-9)
    for name in BOUND_NAMES:
        assert join_list_bound(name, vector) == pytest.approx(
            join_list_bound(name, scalar), abs=1e-9
        )


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5))
@settings(max_examples=50, deadline=None)
def test_pair_bounds_block_matches_scalar_lbc(seed, dims):
    """The raw kernel entry point itself, not just its core wrapper."""
    rng = np.random.default_rng(seed ^ 0x5BD1)
    n = int(rng.integers(1, 30))
    model = paper_cost_model(dims)
    t_low = tuple(0.05 + rng.random(dims) * 2.0)
    lows = 0.05 + rng.random((n, dims)) * 2.0
    highs = lows + rng.random((n, dims)) * 0.8
    block = pair_bounds_block(t_low, lows, highs, model)
    scalar = [
        lbc(t_low, tuple(lo), tuple(hi), model)
        for lo, hi in zip(lows, highs)
    ]
    assert len(block) == len(scalar)
    for (kb, ks), (sb, ss) in zip(block, scalar):
        assert ks == ss  # identical classification signatures
        assert kb == pytest.approx(sb, abs=1e-9)


# ---------------------------------------------------------------------------
# End to end: the whole pipeline with kernels on vs off


@pytest.mark.parametrize("method", ["join", "probing", "basic-probing"])
def test_top_k_upgrades_switch_agreement(method):
    rng = np.random.default_rng(4242)
    competitors = 0.05 + rng.random((300, 3))
    products = 0.05 + rng.random((80, 3)) * 1.6
    model = paper_cost_model(3)
    with use_kernels(True):
        on = top_k_upgrades(
            competitors, products, k=7, cost_model=model, method=method,
            max_entries=8,
        )
    with use_kernels(False):
        off = top_k_upgrades(
            competitors, products, k=7, cost_model=model, method=method,
            max_entries=8,
        )
    assert [r.record_id for r in on.results] == [
        r.record_id for r in off.results
    ]
    assert np.allclose(on.costs, off.costs, atol=1e-9)
    assert [r.upgraded for r in on.results] == [
        r.upgraded for r in off.results
    ]
    # Probing's scale-free counters are path-independent by design; the
    # join's leaf fast path legitimately skips heap traffic, so only the
    # call-level counters are compared there.
    if method == "join":
        assert (
            on.report.counters.upgrade_calls
            == off.report.counters.upgrade_calls
        )
    else:
        assert on.report.counters == off.report.counters


# ---------------------------------------------------------------------------
# The switch itself


def test_switch_context_restores_state():
    assert kernels_enabled()  # default on
    with use_kernels(False):
        assert not kernels_enabled()
        with use_kernels(True):
            assert kernels_enabled()
        assert not kernels_enabled()
    assert kernels_enabled()


def test_set_kernels_enabled_returns_previous():
    previous = set_kernels_enabled(False)
    try:
        assert previous is True
        assert set_kernels_enabled(True) is False
    finally:
        set_kernels_enabled(True)
