"""Run one benchmark workload; the last stdout line is the result JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload topk-churn --seed 2012 \
        --seconds 40 --trace 0

Each run measures in a fresh interpreter (``measure.py``) with pinned
thread counts and hash seed, against the program source in ``src/``.
Afterwards this parent checks that no process started by the run is
still alive; a leftover is killed, waited for, and fails the run.
Exit codes: 0 = every check passed, 1 = an answer or hygiene check
failed, 2 = the run could not start or did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("topk-churn", "lookup-mix", "sharded-churn")
DEFAULT_SEED = 2012  # 7919 is the held-out seed (README.md)
CHILD_TIMEOUT_S = 165.0
REAP_WAIT_S = 5.0
TOKEN_VAR = "PERFBENCH_RUN"


def pinned_env(token: str) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        **{TOKEN_VAR: token},
    )
    return env


def tagged_processes(token: str) -> List[int]:
    """Pids of live processes whose environment carries ``token``."""
    needle = f"{TOKEN_VAR}={token}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as env:
                if needle in env.read().split(b"\0"):
                    pids.append(int(entry))
        except OSError:
            continue
    return pids


def reap(token: str) -> List[int]:
    """Wait briefly for the run's processes to exit; kill stragglers.

    Returns the pids that were still alive after the grace period.
    """
    deadline = time.monotonic() + REAP_WAIT_S
    alive = tagged_processes(token)
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = tagged_processes(token)
    for pid in alive:
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    while tagged_processes(token) and time.monotonic() < deadline + 10.0:
        time.sleep(0.1)
    return alive


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    token = uuid.uuid4().hex
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(HERE / "out"),
    ]
    child = subprocess.Popen(
        cmd, cwd=ROOT, env=pinned_env(token), stdout=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        reap(token)
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 2
    leftovers = reap(token)
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(stdout, end="")
        print(f"perfbench: run failed (exit {child.returncode})",
              file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    code = child.returncode
    if leftovers:
        print(f"perfbench: processes outlived the run: {leftovers}",
              file=sys.stderr)
        result["correct"] = False
        result["failed"] += len(leftovers)
        code = code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
