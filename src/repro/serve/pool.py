"""Bounded worker pool and locking primitives for the serving engine.

**The thread tier and the shard tier.**  Scaling concerns split in two,
and this pool is deliberately only half the answer:

* **Request concurrency** (this module) is a *threads* problem.  The
  engine's shared state — two live R-trees, the skyline cache, the
  top-k prefix — is mutable and pointer-rich; threads share it for
  free.  The hot loops are pure Python and hold the GIL (only the
  numpy-vectorized stretches release it), so the pool buys little CPU
  parallelism — what it buys is what a serving layer needs regardless:
  admission decoupled from execution, bounded queueing with explicit
  backpressure, deadline-scoped execution, and batch formation
  (concurrent requests drained together and run as one amortized join).
* **Kernel parallelism** is a *processes* problem, and it lives in
  :mod:`repro.shard`, not here.  The engine's
  :class:`~repro.shard.engine.ShardExecutor` hash-partitions the
  competitor catalog into shards whose columnar blocks sit in POSIX
  shared memory, spawns workers that rebuild per-shard R-trees
  zero-copy, and scatter-gathers queries under a threshold merge that
  reproduces this tier's answers bit for bit.  The serialization cost
  that once made "swap in a process pool" unattractive is paid once at
  publish time per mutated shard — not per request.

The two tiers compose rather than compete: ``EngineConfig(workers=N)``
puts this pool in front of either engine, and
``EngineConfig(processes=S)`` selects the sharded execution underneath.

The :class:`ReadWriteLock` lets any number of query workers traverse the
trees concurrently while catalog mutations get exclusive access; it is
writer-preferring so a stream of queries cannot starve updates.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Iterator, List, Optional, Sequence

from repro.exceptions import EngineClosedError, EngineOverloadedError
from repro.instrumentation import Counters


class ReadWriteLock:
    """A writer-preferring readers-writer lock.

    Multiple readers may hold the lock simultaneously; a writer waits for
    active readers to drain and blocks new readers while waiting (so
    updates are never starved).  Not reentrant, no upgrade support.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # guarded-by: _cond
        self._writer_active = False  # guarded-by: _cond
        self._writers_waiting = 0  # guarded-by: _cond

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Hold shared (read) access for the duration of the block."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Hold exclusive (write) access for the duration of the block."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
                self._writer_active = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class WorkerPool:
    """A fixed set of daemon threads draining a bounded request queue.

    Items are handed to ``handler`` in *batches*: a woken worker drains up
    to ``batch_max`` queued items in arrival order, so requests that pile
    up behind a slow query are executed together — the engine's batch
    executor then amortizes one R-tree traversal across them.

    Each worker owns a private :class:`Counters` instance (passed to every
    ``handler`` call); aggregation merges the per-worker instances instead
    of sharing one, keeping increments race-free.

    **Supervision.**  A raising ``handler`` cannot kill its worker: the
    exception is contained, counted (:attr:`crash_count`), and reported to
    ``on_batch_error`` (which should fail the batch's requests with a
    typed error so their callers see a terminal response).  The pool's
    capacity therefore never degrades — one bad batch used to silently
    shrink the pool forever.

    Args:
        handler: ``handler(batch, worker_counters)`` — request-level
            errors belong in the request's response; an escaped exception
            is contained by supervision (see above), not a worker death.
        workers: thread count.
        queue_capacity: admission bound; :meth:`submit_many` raises
            :class:`~repro.exceptions.EngineOverloadedError` beyond it.
        batch_max: largest batch handed to a single ``handler`` call.
        on_batch_error: ``on_batch_error(batch, exc)`` called after a
            contained handler crash; its own exceptions are swallowed.
    """

    def __init__(
        self,
        handler: Callable[[List[object], Counters], None],
        workers: int = 4,
        queue_capacity: int = 1024,
        batch_max: int = 64,
        on_batch_error: Optional[
            Callable[[List[object], BaseException], None]
        ] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        self._handler = handler
        self._on_batch_error = on_batch_error
        self._capacity = queue_capacity
        self._batch_max = batch_max
        self._queue: Deque[object] = deque()  # guarded-by: _cond
        self._cond = threading.Condition()
        self._closed = False  # guarded-by: _cond
        self._crashes = 0  # guarded-by: _cond
        self.stuck_workers: List[str] = []
        self.worker_counters: List[Counters] = [
            Counters() for _ in range(workers)
        ]
        self._threads = [
            threading.Thread(
                target=self._run,
                args=(self.worker_counters[i],),
                name=f"skyup-serve-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    @property
    def queue_depth(self) -> int:
        """Number of requests admitted but not yet picked up."""
        with self._cond:
            return len(self._queue)

    @property
    def crash_count(self) -> int:
        """Handler exceptions contained by supervision so far."""
        with self._cond:
            return self._crashes

    @property
    def alive_workers(self) -> int:
        """Worker threads currently running (the full count unless a
        worker is wedged in a non-returning handler after close)."""
        return sum(1 for t in self._threads if t.is_alive())

    def submit_many(self, items: Sequence[object]) -> None:
        """Enqueue ``items`` atomically (all admitted or none).

        Raises:
            EngineClosedError: the pool has been closed.
            EngineOverloadedError: admission would exceed capacity.
        """
        with self._cond:
            if self._closed:
                raise EngineClosedError("worker pool is closed")
            if len(self._queue) + len(items) > self._capacity:
                raise EngineOverloadedError(
                    f"queue full: {len(self._queue)} queued, "
                    f"{len(items)} offered, capacity {self._capacity}"
                )
            self._queue.extend(items)
            self._cond.notify_all()

    # error-boundary: worker supervision — contain handler crashes
    def _run(self, counters: Counters) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue and self._closed:
                    return
                batch = [
                    self._queue.popleft()
                    for _ in range(
                        min(self._batch_max, len(self._queue))
                    )
                ]
            # Queue-wait accounting: stamp pickup at the drain itself, so
            # the measured wait excludes none of the handler's own setup.
            # Duck-typed — the pool stays generic over item types.
            drained_at = time.monotonic()
            for item in batch:
                mark = getattr(item, "mark_picked_up", None)
                if mark is not None:
                    mark(drained_at)
            try:
                self._handler(batch, counters)
            except Exception as exc:
                # Supervision: contain the crash, keep the worker alive.
                with self._cond:
                    self._crashes += 1
                if self._on_batch_error is not None:
                    try:
                        self._on_batch_error(batch, exc)
                    except Exception:  # pragma: no cover - last resort
                        pass

    def close(self, timeout: float = 5.0) -> int:
        """Stop accepting work, drain the queue, and join the workers.

        Returns the number of workers that failed to join within
        ``timeout`` (their names are kept in :attr:`stuck_workers`); 0
        means a clean shutdown.  Idempotent — a second close re-joins any
        previously stuck workers and updates the accounting.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        deadline = time.monotonic() + timeout
        stuck: List[str] = []
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                stuck.append(t.name)
        self.stuck_workers = stuck
        return len(stuck)
