"""The scatter-gather top-k merge (threshold-algorithm style).

Correctness rests on two facts about the per-shard streams:

1. **Local costs are lower bounds.**  A shard holds a subset of the
   competitors, and upgrading against fewer dominators is never more
   expensive, so a product's shard-local cost is ``<=`` its global cost.
2. **Every stream enumerates every product.**  Each worker indexes the
   *full* product catalog against its shard's competitors, so a product
   absent from a stream so far must have shard-local cost at or above
   that stream's frontier.

Together: a product sighted in *no* stream has global cost at least
``T = max over shards of frontier``.  The coordinator therefore computes
exact global costs only for *sighted* products (scattering skyline
requests, merging, and running Algorithm 1 once per product) and emits
them from a ``(cost, record_id)`` heap strictly while ``cost < T`` — the
strict inequality keeps an unsighted product with cost exactly ``T``
from being beaten to its canonical tie-break slot.  Exhausted streams
report ``frontier = inf`` (fact 2 makes that safe), so full exhaustion
flushes the heap.

The emitted sequence is globally sorted by ``(cost, record_id)`` — the
same canonical order every single-process method produces — which is
what the agreement suite asserts bit-for-bit.

**Degraded mode.**  Both facts survive a shard going *down*
(:meth:`ThresholdMerge.mark_down` — breaker-tripped, crashed, or
timed out):

* A down shard's last frontier stays a valid lower bound — its stream
  was ascending while it lived and is simply frozen now — so the
  threshold ``max(frontiers)`` needs no adjustment.
* Fact 2 means *any* exhausted stream implies every product has been
  sighted, so once every **live** shard is exhausted there are no
  unsighted products left and the heap can flush.

The costing step must keep up.  A sighting's exact cost comes from a
skyline scatter, which can itself come back short: a deadline-bounded
timeout (or a worker's cooperative truncation) leaves some shard out
of a product's skyline without marking that shard down.  Costed from
that skyline, the product would enter the heap under-priced — or, at
zero coverage, not at all — while :attr:`ThresholdMerge.coverage`
still claims the full market.  So the coordinator admits a cost only
when the product's skyline covers every shard the merge counts as
live; otherwise it *holds* the merge (:meth:`ThresholdMerge.hold`):
that product's place in the order is unknown, so nothing more is
emitted and the run ends labelled partial.  A shard that is down is
left out on both sides, which is what "the reduced market" means.

Hence a deadline-truncated answer at full coverage is an exact prefix
of the canonical order, and an answer missing shards is the exact
answer over the reduced market (a per-product lower bound on true
costs, since removing competitors never raises an upgrade cost) —
labeled via :attr:`ThresholdMerge.coverage` so callers can tell the
difference.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Set, Tuple

from repro.core.types import UpgradeResult


class ThresholdMerge:
    """Coordinator-side merge state for one progressive top-k query.

    The driving loop alternates three calls: :meth:`observe` per shard
    batch (returns newly sighted record ids), :meth:`add_candidate` once
    each new sighting's exact global cost is known, then :meth:`drain`.
    Draining with sightings still awaiting their exact cost would be
    unsound; :meth:`drain` guards against it (:meth:`abandon` releases a
    sighting whose cost is unknowable, e.g. every shard down;
    :meth:`hold` releases one whose cost is not exact and stops
    emission).
    """

    __slots__ = (
        "k",
        "frontiers",
        "exhausted",
        "down",
        "sighted",
        "emitted",
        "held",
        "_heap",
        "_uncosted",
    )

    def __init__(self, n_shards: int, k: int):
        self.k = k
        self.frontiers: List[float] = [0.0] * n_shards
        self.exhausted: List[bool] = [False] * n_shards
        self.down: List[bool] = [False] * n_shards
        self.sighted: Set[int] = set()
        self.emitted: List[UpgradeResult] = []
        self.held = False
        self._heap: List[Tuple[float, int, UpgradeResult]] = []
        self._uncosted = 0

    # -- feeding --------------------------------------------------------------

    def observe(
        self,
        shard: int,
        rows: Sequence[Tuple[float, int]],
        frontier: float,
        exhausted: bool,
    ) -> List[int]:
        """Record one shard batch; returns record ids sighted for the
        first time (their exact costs are now owed via
        :meth:`add_candidate` or released via :meth:`abandon`)."""
        new: List[int] = []
        for _, record_id in rows:
            if record_id not in self.sighted:
                self.sighted.add(record_id)
                new.append(record_id)
        self.frontiers[shard] = frontier
        self.exhausted[shard] = exhausted
        self._uncosted += len(new)
        return new

    def add_candidate(self, result: UpgradeResult) -> None:
        """Supply the exact global result for one sighted product."""
        heapq.heappush(
            self._heap, (result.cost, result.record_id, result)
        )
        self._uncosted -= 1

    def abandon(self, record_id: int) -> None:
        """Release a sighting whose exact cost cannot be computed.

        The product simply never emits (it stays in :attr:`sighted`, so
        it is not owed again); used when every shard that could supply
        its skyline is down.
        """
        self._uncosted -= 1

    def hold(self, record_id: int) -> None:
        """Release a sighting whose exact cost is unknown, and stop.

        Used when its skyline came back without some live shard (a
        deadline cut the scatter short): its rank in the canonical
        order is unknown, so nothing may be emitted past what already
        was — :attr:`emitted` stays a proven prefix and the merge is
        :attr:`done`.
        """
        self._uncosted -= 1
        self.held = True

    def mark_down(self, shard: int) -> None:
        """Stop expecting progress from ``shard`` (crash/breaker/timeout).

        Its frontier freezes at the last observed value — still a valid
        lower bound on unsighted products, since the stream was
        ascending while it lived — and the merge completes from the
        remaining live shards.  An already-exhausted shard is *not*
        marked down: all of its data is merged, so it still counts
        toward :attr:`coverage`.
        """
        if not self.exhausted[shard]:
            self.down[shard] = True

    # -- emission -------------------------------------------------------------

    @property
    def threshold(self) -> float:
        """Lower bound on any *unsighted* product's global cost."""
        return max(self.frontiers)

    @property
    def all_exhausted(self) -> bool:
        return all(self.exhausted)

    @property
    def all_live_exhausted(self) -> bool:
        """Every live shard is exhausted (no unsighted products remain —
        vacuously true when every shard is down)."""
        return all(
            exhausted or down
            for exhausted, down in zip(self.exhausted, self.down)
        )

    @property
    def coverage(self) -> float:
        """Fraction of shards contributing to the answer."""
        if not self.down:
            return 1.0
        return 1.0 - sum(self.down) / len(self.down)

    @property
    def done(self) -> bool:
        return self.held or len(self.emitted) >= self.k or (
            self.all_live_exhausted
            and not self._heap
            and not self._uncosted
        )

    def drain(self) -> List[UpgradeResult]:
        """Emit every bound-proven-final candidate, in canonical order."""
        if self._uncosted:
            raise ValueError(
                f"{self._uncosted} sighted products still await their "
                f"exact cost; drain would be unsound"
            )
        out: List[UpgradeResult] = []
        bound = self.threshold
        while (
            not self.held
            and self._heap
            and len(self.emitted) < self.k
            and (self._heap[0][0] < bound or self.all_live_exhausted)
        ):
            _, _, result = heapq.heappop(self._heap)
            self.emitted.append(result)
            out.append(result)
        return out
