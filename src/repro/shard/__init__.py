"""The multi-process sharded execution tier.

Where :mod:`repro.serve` scales *request concurrency* with threads (the
GIL is mostly released inside the NumPy kernels), this package scales
*kernel work* across processes: the competitor catalog is hash-partitioned
into shards whose columnar blocks live in POSIX shared memory, spawned
workers rebuild per-shard R-trees zero-copy, and the coordinator
scatter-gathers queries with a threshold-algorithm merge that reproduces
the single-process answers bit for bit.

* :mod:`repro.shard.engine` — :class:`ShardExecutor`, what
  :class:`~repro.serve.engine.UpgradeEngine` executes on when
  ``EngineConfig.processes > 0`` (``ShardedUpgradeEngine`` is the
  engine class itself);
* :mod:`repro.shard.worker` — the spawned worker loop and its
  :class:`ShardSpec` bootstrap record;
* :mod:`repro.shard.client` — :class:`ShardProcess` supervision:
  request plumbing, crash containment, eager respawn;
* :mod:`repro.shard.merge` — :class:`ThresholdMerge`, the scatter-gather
  top-k merge and its correctness argument (including degraded mode);
* :mod:`repro.shard.resilience` — :class:`CircuitBreaker`,
  :class:`HedgePolicy`, and :class:`ShardResilience`: deadline-aware
  hedged scatter, per-process circuit breakers, health scoring;
* :mod:`repro.shard.memory` — :class:`SharedBlock` shared-memory
  segments and :class:`SegmentSpec` attach records;
* :mod:`repro.shard.partition` — the hash-partitioning maps;
* :mod:`repro.shard.spawn` — the one sanctioned doorway to
  :mod:`multiprocessing` (``spawn`` start method, resource-tracker
  hygiene); lint rule SKY801 keeps everything else out of it.
"""

from repro.shard.client import PendingReply, ShardProcess
from repro.shard.engine import ShardedUpgradeEngine, ShardExecutor
from repro.shard.memory import SegmentSpec, SharedBlock, padded_capacity
from repro.shard.merge import ThresholdMerge
from repro.shard.partition import (
    partition_catalog,
    partition_members,
    process_of,
    shard_of,
    shards_of_process,
)
from repro.shard.resilience import (
    CircuitBreaker,
    HedgePolicy,
    RPCOutcome,
    ShardResilience,
)
from repro.shard.worker import ShardSpec

__all__ = [
    "CircuitBreaker",
    "HedgePolicy",
    "PendingReply",
    "RPCOutcome",
    "SegmentSpec",
    "ShardProcess",
    "ShardResilience",
    "ShardExecutor",
    "ShardSpec",
    "ShardedUpgradeEngine",
    "SharedBlock",
    "ThresholdMerge",
    "padded_capacity",
    "partition_catalog",
    "partition_members",
    "process_of",
    "shard_of",
    "shards_of_process",
]
