"""Answer the two questions of the traced runs from saved results.

Usage, from the repository root, after traced and untraced runs of
``topk-churn`` and ``sharded-churn`` with the same seed::

    python3 perfbench/report.py --seed 2012

1. Where a cold top-k's time goes on ``topk-churn``: self time per top-k
   of every layer, from the traced run.
2. What one shard hop costs: ``sharded-churn`` minus ``topk-churn`` per
   op kind, as p50 latency from the untraced runs (p50, because the
   in-process tier's kernel guard reruns about one top-k in twenty and
   the sharded tier has no guard), next to the sharded traced run's
   submit / RPC wait / merge / publish mean self time per op.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
HOP_LAYERS = ("shard.submit", "shard.rpc_wait", "shard.merge", "shard.publish")
KINDS = ("topk", "product", "write")


def load(workload: str, seed: int, trace: int) -> dict:
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    if not path.is_file():
        sys.exit(
            f"missing {path}: run perfbench/run.py --workload {workload} "
            f"--seed {seed} --trace {trace} first"
        )
    return json.loads(path.read_text())


def p50s(record: dict) -> dict:
    both = {**record["metrics"], **record["extra"]}
    return {kind: both.get(f"{kind}_p50_ms") for kind in KINDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2012)
    args = parser.parse_args(argv)

    local = load("topk-churn", args.seed, 1)
    print(f"cold top-k on topk-churn (seed {args.seed}): "
          "self ms per top-k by layer")
    row = local["self_ms_per_op"].get("topk", {})
    total = sum(row.values())
    for name, ms in sorted(row.items(), key=lambda item: -item[1]):
        print(f"  {name:<30} {ms:10.3f} ms  {ms / total:6.1%}")
    print(f"  {'total (traced)':<30} {total:10.3f} ms")

    e2e_local = p50s(load("topk-churn", args.seed, 0))
    e2e_shard = p50s(load("sharded-churn", args.seed, 0))
    shard = load("sharded-churn", args.seed, 1)["self_ms_per_op"]
    print(f"\none shard hop (seed {args.seed}): sharded-churn minus "
          "topk-churn, p50 ms per op; shard.* = mean self ms per op")
    header = "".join(f"{name:>16}" for name in HOP_LAYERS)
    print(f"  {'kind':<8}{'in-process':>12}{'sharded':>12}{'hop':>12}"
          f"{header}")
    for kind in KINDS:
        a, b = e2e_local[kind], e2e_shard[kind]
        if a is None or b is None:
            continue
        split = "".join(
            f"{shard.get(kind, {}).get(name, 0.0):16.3f}"
            for name in HOP_LAYERS
        )
        print(f"  {kind:<8}{a:12.3f}{b:12.3f}{b - a:12.3f}{split}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
