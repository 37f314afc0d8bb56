"""The serving join seeded with the maintained competitor skyline.

With kernels on, ``MarketSession.make_upgrader`` starts the join from the
points of the maintained ``sky(P)`` as leaf entries instead of ``R_P``'s
root.  By ``sky(D_t) = D_t ∩ sky(P)`` that list already holds every
product's dominator skyline, so the seeded join must answer exactly what
the paper's join answers with kernels off — the kernel guard's oracle,
which keeps refining ``R_P`` join lists and never reads the snapshot.
Answers are compared repr-exact over the whole stream, down to k = |T|.
"""

import random

import pytest

from repro.core.bounds import BOUND_NAMES
from repro.core.join import JoinUpgrader
from repro.core.session import MarketSession
from repro.kernels.switch import kernels_enabled, use_kernels
from repro.reliability.guards import KernelGuard
from repro.rtree.tree import RTree
from repro.serve import EngineConfig, TopKQuery, UpgradeEngine
from repro.skyline.bbs import bbs_skyline


def draw(rng, dims, grid, low, high):
    if grid:  # the quarter grid: ties and twins are common
        steps = int((high - low) * 4)
        return tuple(low + rng.randint(0, steps) / 4 for _ in range(dims))
    return tuple(rng.uniform(low, high) for _ in range(dims))


def random_session(rng, dims, grid, max_entries):
    competitors = [draw(rng, dims, grid, 0.0, 1.5) for _ in range(60)]
    products = [draw(rng, dims, grid, 0.5, 2.0) for _ in range(24)]
    # Products equal to competitors: a twin never dominates its product.
    products += rng.sample(competitors, 4)
    return MarketSession.from_points(
        competitors, products, max_entries=max_entries
    )


def drain(session, bound):
    """Every result of one full stream, with the run's counters."""
    upgrader = session.make_upgrader(bound=bound)
    results = [
        (r.record_id, r.cost, r.upgraded) for r in upgrader.results()
    ]
    return upgrader, repr(results)


def assert_seeded_equals_oracle(session, bound):
    __tracebackhide__ = True
    seeded, answer = drain(session, bound)
    with use_kernels(False):
        oracle, expected = drain(session, bound)
    assert seeded.seed is not None and oracle.seed is None
    assert answer == expected
    # Every product is priced once on either path, from the same
    # dominator skyline.
    for name in ("upgrade_calls", "skyline_points"):
        assert getattr(seeded.stats, name) == getattr(oracle.stats, name)


class TestIdentity:
    @pytest.mark.parametrize("max_entries", [4, 8, 32])
    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "continuous"])
    @pytest.mark.parametrize("dims", [2, 3, 4, 5])
    def test_random_catalogs_and_write_streams(self, dims, grid, max_entries):
        rng = random.Random(f"{dims}-{grid}-{max_entries}")
        session = random_session(rng, dims, grid, max_entries)
        for step in range(8):
            for bound in BOUND_NAMES:
                assert_seeded_equals_oracle(session, bound)
            ids = sorted(session.competitors_by_id()[0])
            if step % 2 and ids:
                # Remove a skyline point when there is one: the regrow.
                skyline = set(session._competitor_skyline().points)
                on_sky = [
                    cid for cid in ids
                    if session._competitor_points[cid] in skyline
                ]
                assert session.remove_competitor(rng.choice(on_sky or ids))
            else:
                session.add_competitor(draw(rng, dims, grid, 0.0, 1.5))

    def test_paper_layout_past_the_kernel_crossover(self):
        # T in (1, 2]^d: every skyline point is in every product's ADR,
        # and the seed is long enough for the broadcast paths.
        rng = random.Random(2012)
        session = MarketSession.from_points(
            [(x, 1.0 - x + rng.uniform(0.0, 0.05), rng.random())
             for x in (rng.random() for _ in range(300))],
            [draw(rng, 3, False, 1.0, 2.0) for _ in range(80)],
            max_entries=8,
        )
        assert len(session._competitor_skyline().points) >= 8
        for bound in BOUND_NAMES:
            assert_seeded_equals_oracle(session, bound)


class TestSeed:
    def test_the_seed_is_the_maintained_skyline(self):
        session = random_session(random.Random(5), 3, True, 8)
        upgrader = session.make_upgrader()
        assert list(upgrader.seed) == bbs_skyline(session.competitor_index)

    def test_a_seeded_run_opens_no_competitor_node(self, monkeypatch):
        session = random_session(random.Random(6), 3, False, 4)
        with use_kernels(False):
            _, expected = drain(session, "alb")

        competitors = session.competitor_index
        root_entry = RTree.root_entry

        def opened(*args):
            raise AssertionError("opened an R_P node")

        def guarded_root(tree):
            if tree is competitors:
                opened()
            return root_entry(tree)

        monkeypatch.setattr(RTree, "root_entry", guarded_root)
        monkeypatch.setattr(JoinUpgrader, "_refine_join_list", opened)
        seeded, answer = drain(session, "alb")
        assert answer == expected
        assert seeded.stats.upgrade_calls == session.product_count

    def test_kernels_off_builds_an_unseeded_upgrader(self):
        session = random_session(random.Random(7), 2, True, 4)
        with use_kernels(False):
            assert session.make_upgrader().seed is None
        assert session.make_upgrader().seed is not None

    def test_the_guard_oracle_is_unseeded(self, monkeypatch):
        session = random_session(random.Random(8), 3, False, 8)
        make_upgrader = session.make_upgrader
        built = []

        def recording(bound=None):
            upgrader = make_upgrader(bound=bound)
            built.append((kernels_enabled(), upgrader.seed is not None))
            return upgrader

        monkeypatch.setattr(session, "make_upgrader", recording)
        config = EngineConfig(
            workers=0, method="join", cache=False,
            kernel_guard=KernelGuard(sample_rate=1.0),
        )
        with UpgradeEngine(session, config) as engine:
            response = engine.query(TopKQuery(k=session.product_count))
            guard = engine.metrics()["reliability"]["kernel_guard"]
        assert built == [(True, True), (False, False)]
        assert guard["checks"] == 1 and guard["divergences"] == 0
        assert len(response.results) == session.product_count

    def test_empty_competitor_set(self):
        session = MarketSession.from_points([], [(1.0, 2.0), (0.5, 0.5)])
        for bound in BOUND_NAMES:
            assert_seeded_equals_oracle(session, bound)
        assert session.make_upgrader().seed == ()
        assert [r.cost for r in session.top_k(2).results] == [0.0, 0.0]

    def test_kernels_off_remove_then_rebuild(self):
        session = random_session(random.Random(9), 3, True, 4)
        assert_seeded_equals_oracle(session, "clb")
        first = session._competitor_skyline().points[0]
        cid = next(
            cid for cid, p in session._competitor_points.items() if p == first
        )
        with use_kernels(False):
            assert session.remove_competitor(cid)
        assert session._skyline is None  # dropped, not regrown
        assert_seeded_equals_oracle(session, "clb")
        assert list(session._skyline.points) == bbs_skyline(
            session.competitor_index
        )
