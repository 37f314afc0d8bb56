"""Dynamic lock-order witness: records acquisitions, fails on cycles.

``pytest-timeout`` turns a deadlock into a dead job with a stack dump;
this module turns the *potential* for one into a diagnosis.  A
:class:`LockOrderWitness` wraps the locks of interest in thin recording
proxies.  Every wrapped acquisition while other wrapped locks are held
adds edges ``held -> acquired`` to a process-wide order graph; a cycle
in that graph is a lock-order inversion — two threads interleaving those
paths can deadlock, even if this run happened not to.

The proxies delegate to the *original* primitives, so instrumenting a
live object mid-flight is safe: a worker blocked in ``cond.wait()``
before instrumentation is woken by a ``notify`` routed through the
proxy, because both touch the same underlying condition.

Recording costs one thread-local list append per acquisition, so the
witness is cheap enough to leave on for a whole suite (the chaos CI job
runs with ``SKYUP_LOCK_WITNESS=1``).  ``wait()`` on a wrapped condition
is modelled as release + reacquire — exactly its locking semantics —
so blocking in a wait does not fabricate ordering edges.

Example::

    witness = LockOrderWitness()
    a = witness.wrap_lock(threading.Lock(), "a")
    b = witness.wrap_lock(threading.Lock(), "b")
    with a:
        with b:
            pass
    with b:
        with a:   # inversion: the graph now has a <-> b
            pass
    witness.check()   # raises LockOrderError naming the cycle
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.exceptions import LockOrderError

Edge = Tuple[str, str]


class _Proxy:
    """Shared bookkeeping for every lock-like wrapper."""

    def __init__(self, witness: "LockOrderWitness", name: str):
        self._witness = witness
        self._name = name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._name!r})"


class InstrumentedLock(_Proxy):
    """A recording proxy around a ``threading.Lock``-like object."""

    def __init__(
        self, witness: "LockOrderWitness", name: str, lock: object
    ):
        super().__init__(witness, name)
        self._lock = lock

    def acquire(self, *args: object, **kwargs: object) -> bool:
        got = self._lock.acquire(*args, **kwargs)
        if got:
            self._witness.note_acquired(self._name)
        return got

    def release(self) -> None:
        self._witness.note_released(self._name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class InstrumentedCondition(_Proxy):
    """A recording proxy around a ``threading.Condition``.

    ``wait`` releases and reacquires the underlying lock; the witness
    mirrors that so time spent blocked never counts as holding the lock.
    """

    def __init__(
        self,
        witness: "LockOrderWitness",
        name: str,
        cond: threading.Condition,
    ):
        super().__init__(witness, name)
        self._cond = cond

    def acquire(self, *args: object, **kwargs: object) -> bool:
        got = self._cond.acquire(*args, **kwargs)
        if got:
            self._witness.note_acquired(self._name)
        return got

    def release(self) -> None:
        self._witness.note_released(self._name)
        self._cond.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        self._witness.note_released(self._name)
        try:
            return self._cond.wait(timeout)
        finally:
            self._witness.note_acquired(self._name)

    def wait_for(self, predicate, timeout: Optional[float] = None) -> bool:
        self._witness.note_released(self._name)
        try:
            return self._cond.wait_for(predicate, timeout)
        finally:
            self._witness.note_acquired(self._name)

    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._cond.notify_all()

    def __enter__(self) -> "InstrumentedCondition":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class InstrumentedRWLock(_Proxy):
    """A recording proxy around :class:`repro.serve.pool.ReadWriteLock`.

    Read and write acquisitions are one node in the order graph: for
    deadlock *ordering* purposes what matters is that the primitive can
    block, not which mode blocked.
    """

    def __init__(self, witness: "LockOrderWitness", name: str, rw: object):
        super().__init__(witness, name)
        self._rw = rw

    def read_locked(self) -> Iterator[None]:
        return self._locked(self._rw.read_locked())

    def write_locked(self) -> Iterator[None]:
        return self._locked(self._rw.write_locked())

    def _locked(self, inner) -> Iterator[None]:
        witness, name = self._witness, self._name

        class _Ctx:
            def __enter__(ctx) -> None:  # noqa: N805 - nested helper
                inner.__enter__()
                witness.note_acquired(name)

            def __exit__(ctx, *exc_info: object) -> None:  # noqa: N805
                witness.note_released(name)
                inner.__exit__(*exc_info)

        return _Ctx()


class LockOrderWitness:
    """The process-wide acquisition-order graph and its cycle check."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._edges: Dict[Edge, int] = {}  # guarded-by: _lock
        self._acquisitions = 0  # guarded-by: _lock

    # -- recording ------------------------------------------------------------

    def _held(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def note_acquired(self, name: str) -> None:
        """Record that the calling thread now holds ``name``."""
        stack = self._held()
        with self._lock:
            self._acquisitions += 1
            for held in stack:
                if held != name:
                    edge = (held, name)
                    self._edges[edge] = self._edges.get(edge, 0) + 1
        stack.append(name)

    def note_released(self, name: str) -> None:
        """Record that the calling thread released ``name``."""
        stack = self._held()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                return

    # -- wrapping -------------------------------------------------------------

    def wrap_lock(self, lock: object, name: str) -> InstrumentedLock:
        """Wrap a mutex-like object (``acquire``/``release``)."""
        return InstrumentedLock(self, name, lock)

    def wrap_condition(
        self, cond: threading.Condition, name: str
    ) -> InstrumentedCondition:
        """Wrap a condition variable (``wait`` modelled as release)."""
        return InstrumentedCondition(self, name, cond)

    def wrap_rwlock(self, rw: object, name: str) -> InstrumentedRWLock:
        """Wrap a readers-writer lock exposing ``read_locked``/``write_locked``."""
        return InstrumentedRWLock(self, name, rw)

    # -- analysis -------------------------------------------------------------

    def edges(self) -> Dict[Edge, int]:
        """Observed ``held -> acquired`` edges with occurrence counts."""
        with self._lock:
            return dict(self._edges)

    def acquisitions(self) -> int:
        """Total wrapped acquisitions recorded (sanity signal for tests)."""
        with self._lock:
            return self._acquisitions

    def cycles(self) -> List[List[str]]:
        """Every elementary cycle in the order graph (shortest first).

        An empty list means every observed acquisition respected one
        global order — no deadlock is constructible from the witnessed
        paths.
        """
        graph: Dict[str, Set[str]] = {}
        for src, dst in self.edges():
            graph.setdefault(src, set()).add(dst)
            graph.setdefault(dst, set())
        out: List[List[str]] = []
        seen_cycles: Set[Tuple[str, ...]] = set()

        def dfs(start: str, node: str, path: List[str]) -> None:
            for nxt in sorted(graph.get(node, ())):
                if nxt == start:
                    cycle = path[:]
                    anchor = cycle.index(min(cycle))
                    canonical = tuple(cycle[anchor:] + cycle[:anchor])
                    if canonical not in seen_cycles:
                        seen_cycles.add(canonical)
                        out.append(list(canonical))
                elif nxt not in path and nxt > start:
                    # Only explore nodes ordered after the start so each
                    # cycle is discovered from its smallest node once.
                    dfs(start, nxt, path + [nxt])

        for node in sorted(graph):
            dfs(node, node, [node])
        out.sort(key=lambda c: (len(c), c))
        return out

    def check(self) -> None:
        """Raise :class:`LockOrderError` if any ordering cycle was seen."""
        cycles = self.cycles()
        if not cycles:
            return
        rendered = "; ".join(
            " -> ".join(cycle + [cycle[0]]) for cycle in cycles
        )
        raise LockOrderError(
            f"lock-order inversion witnessed ({len(cycles)} cycle(s)): "
            f"{rendered}.  Two threads interleaving these acquisition "
            f"paths can deadlock."
        )


def instrument_engine(engine, witness: LockOrderWitness) -> None:
    """Swap an :class:`UpgradeEngine`'s locks for recording proxies.

    Covers every lock the serving stack can hold concurrently: the
    readers-writer lock, both cache locks, the metrics lock, the pool's
    condition, the guard locks, the engine's counter locks, and the
    session's skyline lock; on the sharded tier also every shard
    handle's lock and the breaker, hedge, and resilience-stats locks.  Safe on a live engine — proxies delegate to
    the original primitives (see the module docstring), and every member
    re-reads its lock attribute per operation rather than capturing it.
    """
    engine._rw = witness.wrap_rwlock(engine._rw, "engine._rw")
    engine._extern_lock = witness.wrap_lock(
        engine._extern_lock, "engine._extern_lock"
    )
    engine._guard_stats_lock = witness.wrap_lock(
        engine._guard_stats_lock, "engine._guard_stats_lock"
    )
    engine.skyline_cache._lock = witness.wrap_lock(
        engine.skyline_cache._lock, "skyline_cache._lock"
    )
    engine.topk_cache._lock = witness.wrap_lock(
        engine.topk_cache._lock, "topk_cache._lock"
    )
    engine._metrics._lock = witness.wrap_lock(
        engine._metrics._lock, "metrics._lock"
    )
    engine.kernel_guard._lock = witness.wrap_lock(
        engine.kernel_guard._lock, "kernel_guard._lock"
    )
    engine.index_guard._lock = witness.wrap_lock(
        engine.index_guard._lock, "index_guard._lock"
    )
    engine.session._skyline_lock = witness.wrap_lock(
        engine.session._skyline_lock, "session._skyline_lock"
    )
    if engine._pool is not None:
        engine._pool._cond = witness.wrap_condition(
            engine._pool._cond, "pool._cond"
        )
    executor = engine._executor
    if executor.sharded:
        for handle in executor._handles:
            handle._lock = witness.wrap_lock(
                handle._lock, "ShardProcess._lock"
            )
        resilience = executor._resilience
        for breaker in resilience.breakers.values():
            breaker._lock = witness.wrap_lock(
                breaker._lock, "CircuitBreaker._lock"
            )
        resilience.hedge._lock = witness.wrap_lock(
            resilience.hedge._lock, "HedgePolicy._lock"
        )
        resilience._stats_lock = witness.wrap_lock(
            resilience._stats_lock, "ShardResilience._stats_lock"
        )
