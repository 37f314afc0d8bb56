"""Chaos: shard worker processes killed under load.

The crash-containment contract, replayed across seeds and kill points:

1. **No hang** — every wait below is bounded; an in-flight request on a
   killed worker resolves (typed error or answer), never blocks forever.
2. **Typed failure or success** — a request racing a worker kill either
   completes correctly or fails with :class:`WorkerCrashError`; raw
   queue/pipe exceptions never leak.
3. **Respawn** — the killed process is replaced automatically, crash and
   respawn counters move, and *subsequent* queries answer correctly —
   bit-identical to a never-crashed single-process engine, even when the
   kill raced a catalog mutation (the eager segment republish is what
   makes the respawned worker consistent).
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import (
    CostModel,
    EngineConfig,
    LinearCost,
    MarketSession,
    TopKQuery,
    UpgradeEngine,
)
from repro.exceptions import SkyUpError, WorkerCrashError
from repro.shard import ShardedUpgradeEngine

DIMS = 3
TIMEOUT = 120
RESPAWN_TIMEOUT = 60


def make_session(seed, n_competitors=30, n_products=18):
    rng = random.Random(seed)
    session = MarketSession(
        DIMS, CostModel([LinearCost(10.0, 1.0) for _ in range(DIMS)])
    )
    for _ in range(n_competitors):
        session.add_competitor(
            tuple(round(rng.uniform(0.0, 10.0), 3) for _ in range(DIMS))
        )
    for _ in range(n_products):
        session.add_product(
            tuple(round(rng.uniform(0.0, 10.0), 3) for _ in range(DIMS))
        )
    return session


def respawn_count(engine):
    return sum(h.respawns for h in engine._executor._handles)


def wait_for_respawn(engine, target, deadline_s=RESPAWN_TIMEOUT):
    """Wait until at least ``target`` respawns happened and all alive.

    Waiting on ``alive`` alone races the kill itself: right after
    ``kill()`` the SIGKILL may not have landed, so the old process still
    reports alive.  The respawn counter only moves after the monitor has
    observed the death and restarted the worker.
    """
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if respawn_count(engine) >= target and all(
            h.alive for h in engine._executor._handles
        ):
            return
        time.sleep(0.1)
    raise AssertionError(
        f"workers did not respawn: {engine.shard_stats()}"
    )


@pytest.fixture
def engine():
    eng = ShardedUpgradeEngine(
        make_session(seed=2012),
        EngineConfig(workers=0, method="join", processes=2, shards=2),
    )
    yield eng
    eng.close()


def test_kill_idle_worker_then_query(engine):
    baseline = engine.query(TopKQuery(k=5)).results
    respawns = respawn_count(engine)
    engine._executor._handles[0].kill()
    # The next query either races the death (typed failure) or lands
    # after the respawn (correct answer).  Both are acceptable; a hang
    # or an untyped error is not.
    try:
        engine.query(TopKQuery(k=5))
    except WorkerCrashError:
        pass
    wait_for_respawn(engine, respawns + 1)
    engine.topk_cache.invalidate()
    assert engine.query(TopKQuery(k=5)).results == baseline
    stats = engine.shard_stats()["per_process"][0]
    assert stats["crashes"] >= 1
    assert stats["respawns"] >= 1
    assert stats["alive"]


def test_kill_during_inflight_request_never_hangs(engine):
    engine.topk_cache.invalidate()
    outcome = {}

    def run():
        try:
            outcome["response"] = engine.query(TopKQuery(k=8))
        except SkyUpError as exc:
            outcome["error"] = exc

    respawns = respawn_count(engine)
    worker = threading.Thread(target=run)
    worker.start()
    engine._executor._handles[1].kill()
    worker.join(TIMEOUT)
    assert not worker.is_alive(), "in-flight request hung after kill"
    if "error" in outcome:
        assert isinstance(outcome["error"], WorkerCrashError)
    else:
        assert len(outcome["response"].results) == 8
    wait_for_respawn(engine, respawns + 1)
    engine.topk_cache.invalidate()
    assert len(engine.query(TopKQuery(k=8)).results) == 8


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_kill_racing_mutation_stays_consistent(seed):
    rng = random.Random(seed)
    sharded = ShardedUpgradeEngine(
        make_session(seed=seed),
        EngineConfig(workers=0, method="join", processes=2, shards=2),
    )
    reference = UpgradeEngine(
        make_session(seed=seed), EngineConfig(workers=0, method="join")
    )
    try:
        kill_at = rng.randrange(4)
        kills = 0
        for step in range(4):
            if step == kill_at:
                sharded._executor._handles[step % 2].kill()
                kills += 1
            point = tuple(
                round(rng.uniform(0.0, 10.0), 3) for _ in range(DIMS)
            )
            # The mutation may ack into a dead worker: the engine treats
            # that as benign (the respawn rebuilds from the republished
            # segment) — consistency afterwards is exactly the claim.
            sharded.add_competitor(point)
            reference.add_competitor(point)
        wait_for_respawn(sharded, kills)
        a = reference.query(TopKQuery(k=10)).results
        b = sharded.query(TopKQuery(k=10)).results
        assert a == b
    finally:
        sharded.close()
        reference.close()


def test_repeated_kills_keep_counting(engine):
    for round_no in range(2):
        engine._executor._handles[0].kill()
        wait_for_respawn(engine, round_no + 1)
        engine.topk_cache.invalidate()
        assert engine.query(TopKQuery(k=3)).results
    stats = engine.shard_stats()["per_process"][0]
    assert stats["crashes"] == 2
    assert stats["respawns"] == 2
    assert engine.metrics()["reliability"]["worker_respawns"] >= 2
