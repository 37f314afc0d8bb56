"""The scatter-gather merge layer, against single-process oracles.

``merge_skylines`` must reproduce ``get_dominating_skyline``'s canonical
``(sum, lex)`` order from arbitrary partitions of the competitor set —
that is the property the sharded product path rests on.
``ThresholdMerge`` is pinned against hand-built stream scenarios:
threshold evolution, strict-inequality emission at ties, exhaustion
flushes, and the uncosted-sighting guard.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dominators import (
    dominators_brute_force,
    get_dominating_skyline,
    merge_skylines,
)
from repro.core.types import UpgradeResult
from repro.rtree.tree import RTree
from repro.shard.merge import ThresholdMerge
from repro.shard.partition import (
    partition_catalog,
    partition_members,
    process_of,
    shard_of,
    shards_of_process,
)

# ---------------------------------------------------------------------------
# partition maps


class TestPartition:
    def test_shard_and_process_maps(self):
        assert [shard_of(r, 4) for r in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert [process_of(s, 2) for s in range(4)] == [0, 1, 0, 1]

    def test_shards_of_process_partitions_exactly(self):
        n_shards, n_procs = 7, 3
        owned = [
            shards_of_process(p, n_shards, n_procs)
            for p in range(n_procs)
        ]
        flat = sorted(s for shards in owned for s in shards)
        assert flat == list(range(n_shards))
        for p, shards in enumerate(owned):
            assert all(process_of(s, n_procs) == p for s in shards)

    def test_partition_catalog_routes_by_id(self):
        ids = [0, 1, 2, 5, 9, 10]
        points = [(float(i),) for i in ids]
        buckets = partition_catalog(ids, points, 3)
        assert buckets[0] == ([0, 9], [(0.0,), (9.0,)])
        assert buckets[1] == ([1, 10], [(1.0,), (10.0,)])
        assert buckets[2] == ([2, 5], [(2.0,), (5.0,)])

    def test_partition_members_sorted_ascending(self):
        members = {9: (9.0,), 0: (0.0,), 3: (3.0,), 1: (1.0,)}
        buckets = partition_members(members, 3)
        assert buckets[0] == ([0, 3, 9], [(0.0,), (3.0,), (9.0,)])
        assert buckets[1] == ([1], [(1.0,)])
        assert buckets[2] == ([], [])


# ---------------------------------------------------------------------------
# merge_skylines vs the single-tree traversal


def random_catalog(rng, n, dims):
    return [
        tuple(round(rng.uniform(0.0, 1.0), 3) for _ in range(dims))
        for _ in range(n)
    ]


@pytest.mark.parametrize("n_parts", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merge_skylines_matches_single_tree(seed, n_parts):
    rng = random.Random(seed)
    dims = 3
    competitors = random_catalog(rng, 60, dims)
    products = random_catalog(rng, 15, dims)

    whole = RTree.bulk_load(competitors)
    parts = [competitors[i::n_parts] for i in range(n_parts)]
    part_trees = [
        RTree.bulk_load(part) if part else RTree(dims) for part in parts
    ]

    for product in products:
        expected = get_dominating_skyline(whole, product)
        merged = merge_skylines(
            [get_dominating_skyline(t, product) for t in part_trees]
        )
        assert merged == expected  # canonical order, bit for bit


def test_merge_skylines_dedupes_cross_shard_duplicates():
    # The same point living in two shards must appear once, and a point
    # dominated only by a point from *another* shard must be dropped.
    a = [(0.2, 0.2), (0.5, 0.1)]
    b = [(0.2, 0.2), (0.1, 0.4)]
    merged = merge_skylines([a, b])
    assert merged == [(0.2, 0.2), (0.1, 0.4), (0.5, 0.1)]
    # sorted by (sum, lex); every survivor is mutually non-dominated
    brute = dominators_brute_force(set(a + b), (1.0, 1.0))
    assert set(merged) <= set(brute)
    # (0.3, 0.4) is dominated by shard a's (0.2, 0.2): dropped.
    merged2 = merge_skylines([a, [(0.3, 0.4)]])
    assert (0.3, 0.4) not in merged2


def test_merge_skylines_empty_inputs():
    assert merge_skylines([]) == []
    assert merge_skylines([[], []]) == []
    assert merge_skylines([[], [(0.1, 0.2)]]) == [(0.1, 0.2)]


# ---------------------------------------------------------------------------
# ThresholdMerge


def result(rid, cost):
    return UpgradeResult(rid, (0.0,), (0.0,), cost)


class TestThresholdMerge:
    def test_emits_only_below_threshold(self):
        merge = ThresholdMerge(n_shards=2, k=3)
        new = merge.observe(0, [(1.0, 10)], frontier=1.0, exhausted=False)
        assert new == [10]
        merge.add_candidate(result(10, 1.5))
        # T = max(1.0, 0.0) = 1.0: cost 1.5 is not bound-proven yet.
        assert merge.drain() == []
        merge.observe(1, [(2.0, 11)], frontier=2.0, exhausted=False)
        merge.add_candidate(result(11, 2.5))
        # T = 2.0 now proves cost 1.5 final, not 2.5.
        assert [r.record_id for r in merge.drain()] == [10]
        assert [r.record_id for r in merge.emitted] == [10]

    def test_strict_inequality_holds_ties(self):
        # A candidate whose cost *equals* T may still be beaten to its
        # canonical slot by an unsighted product with the same cost and
        # a smaller record id — it must not be emitted yet.
        merge = ThresholdMerge(n_shards=2, k=1)
        merge.observe(0, [(1.0, 7)], frontier=1.0, exhausted=False)
        merge.add_candidate(result(7, 1.0))
        assert merge.drain() == []
        merge.observe(1, [], frontier=1.0, exhausted=True)
        merge.observe(0, [], frontier=float("inf"), exhausted=True)
        assert [r.record_id for r in merge.drain()] == [7]

    def test_exhaustion_flushes_heap(self):
        merge = ThresholdMerge(n_shards=1, k=5)
        merge.observe(
            0, [(1.0, 1), (2.0, 2)], frontier=float("inf"), exhausted=True
        )
        merge.add_candidate(result(1, 1.0))
        merge.add_candidate(result(2, 2.0))
        drained = merge.drain()
        assert [r.record_id for r in drained] == [1, 2]
        assert merge.done
        assert merge.all_exhausted

    def test_canonical_tie_order_by_record_id(self):
        merge = ThresholdMerge(n_shards=1, k=3)
        merge.observe(
            0,
            [(1.0, 30), (1.0, 10), (1.0, 20)],
            frontier=float("inf"),
            exhausted=True,
        )
        for rid in (30, 10, 20):
            merge.add_candidate(result(rid, 1.0))
        assert [r.record_id for r in merge.drain()] == [10, 20, 30]

    def test_duplicate_sightings_counted_once(self):
        merge = ThresholdMerge(n_shards=2, k=2)
        first = merge.observe(0, [(1.0, 5)], 1.0, False)
        second = merge.observe(1, [(1.2, 5)], 1.2, False)
        assert first == [5]
        assert second == []  # already sighted: no second exact-cost owed
        merge.add_candidate(result(5, 1.3))
        assert merge.drain() == []  # 1.3 >= T=1.2

    def test_drain_with_uncosted_sightings_is_an_error(self):
        merge = ThresholdMerge(n_shards=1, k=1)
        merge.observe(0, [(1.0, 5)], 1.0, False)
        with pytest.raises(ValueError):
            merge.drain()

    def test_done_at_k(self):
        merge = ThresholdMerge(n_shards=1, k=1)
        merge.observe(0, [(1.0, 5)], 3.0, False)
        merge.add_candidate(result(5, 1.0))
        assert [r.record_id for r in merge.drain()] == [5]
        assert merge.done
        assert not merge.all_exhausted


# ---------------------------------------------------------------------------
# ThresholdMerge degraded mode (shards marked down)


class TestThresholdMergeDegraded:
    def test_zero_live_shards_terminates_empty(self):
        # Every shard down before contributing: the merge must terminate
        # (vacuously all-live-exhausted), drain nothing, and report zero
        # coverage — the engine turns this into an empty partial answer.
        merge = ThresholdMerge(n_shards=3, k=5)
        for shard in range(3):
            merge.mark_down(shard)
        assert merge.all_live_exhausted
        assert merge.done
        assert merge.drain() == []
        assert merge.coverage == 0.0

    def test_down_after_contributing_flushes_from_live(self):
        merge = ThresholdMerge(n_shards=2, k=5)
        merge.observe(0, [(1.0, 1)], frontier=1.0, exhausted=False)
        merge.add_candidate(result(1, 1.5))
        merge.mark_down(0)
        # Shard 0's frontier freezes at 1.0 — still a lower bound — so
        # cost 1.5 is not provable until the live shard's frontier
        # passes it.
        assert merge.drain() == []
        merge.observe(1, [], frontier=2.0, exhausted=False)
        assert [r.record_id for r in merge.drain()] == [1]
        merge.observe(1, [], frontier=float("inf"), exhausted=True)
        assert merge.all_live_exhausted
        assert merge.done
        assert merge.coverage == 0.5

    def test_held_sighting_stops_emission(self):
        # A sighting whose cost is not exact (its skyline missed a live
        # shard) has an unknown rank: nothing may be emitted after it,
        # not even a cheaper-looking candidate, and the merge is done.
        merge = ThresholdMerge(n_shards=1, k=3)
        merge.observe(0, [(0.5, 1), (0.7, 2)], frontier=1.0, exhausted=False)
        merge.add_candidate(result(1, 0.5))
        merge.hold(2)
        assert merge.drain() == []
        assert merge.held and merge.done
        assert merge.coverage == 1.0

    def test_exhausted_shard_is_not_marked_down(self):
        # An exhausted stream contributed everything it ever could:
        # marking its process down afterwards must not dent coverage.
        merge = ThresholdMerge(n_shards=2, k=2)
        merge.observe(0, [], frontier=float("inf"), exhausted=True)
        merge.mark_down(0)
        assert not merge.down[0]
        assert merge.coverage == 1.0

    def test_empty_skyline_shard_exhausts_immediately(self):
        # A shard whose competitors dominate nothing streams no rows and
        # exhausts at once; the merge completes from the other shard and
        # the answer stays full-coverage.
        merge = ThresholdMerge(n_shards=2, k=2)
        merge.observe(0, [], frontier=float("inf"), exhausted=True)
        merge.observe(
            1, [(1.0, 1), (2.0, 2)], frontier=float("inf"), exhausted=True
        )
        merge.add_candidate(result(1, 1.0))
        merge.add_candidate(result(2, 2.0))
        assert [r.record_id for r in merge.drain()] == [1, 2]
        assert merge.coverage == 1.0
        assert merge.done

    def test_degraded_emission_is_prefix_of_canonical_order(self):
        # Run the same stream scenario twice — once clean, once with a
        # shard dying midway — and check every degraded emission round
        # is a prefix of the canonical (cost, record_id) order over the
        # candidates the degraded run actually emitted.
        rows0 = [(1.0, 4, 1.1), (2.0, 2, 2.0), (3.0, 6, 3.5)]
        rows1 = [(1.5, 3, 1.6), (2.5, 5, 2.6)]

        def feed(merge, shard, rows, upto, exhausted):
            batch = [(lb, rid) for lb, rid, _ in rows[:upto]]
            frontier = (
                float("inf") if exhausted else rows[upto - 1][0]
            )
            new = merge.observe(shard, batch, frontier, exhausted)
            for lb, rid, cost in rows[:upto]:
                if rid in new:
                    merge.add_candidate(result(rid, cost))

        clean = ThresholdMerge(n_shards=2, k=5)
        feed(clean, 0, rows0, 3, True)
        feed(clean, 1, rows1, 2, True)
        clean.drain()
        canonical = [r.record_id for r in clean.emitted]

        degraded = ThresholdMerge(n_shards=2, k=5)
        emitted = []
        feed(degraded, 0, rows0, 2, False)
        feed(degraded, 1, rows1, 1, False)
        emitted += degraded.drain()
        degraded.mark_down(1)  # shard 1 dies mid-stream
        emitted += degraded.drain()
        feed(degraded, 0, rows0, 3, True)
        emitted += degraded.drain()
        assert degraded.all_live_exhausted and degraded.done
        got = [r.record_id for r in emitted]
        # Every emission in ascending canonical order, and the whole
        # degraded answer is a subsequence that starts at the front of
        # the canonical order up to the last emitted element (nothing
        # cheap was skipped among what the degraded run sighted).
        assert got == sorted(
            got, key=lambda rid: canonical.index(rid)
        )
        sighted = [rid for rid in canonical if rid in degraded.sighted]
        assert got == sighted[: len(got)]
        assert degraded.coverage == 0.5

    def test_abandon_releases_uncosted_sighting(self):
        merge = ThresholdMerge(n_shards=1, k=2)
        merge.observe(
            0, [(1.0, 1), (2.0, 2)], frontier=float("inf"), exhausted=True
        )
        merge.add_candidate(result(1, 1.0))
        merge.abandon(2)  # its exact cost was uncomputable (shards down)
        assert [r.record_id for r in merge.drain()] == [1]
        assert merge.done
