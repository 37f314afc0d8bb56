"""The lint engine and every rule, on purpose-built fixture trees.

Each fixture is a miniature ``src/repro`` written into ``tmp_path``; the
assertions pin exact rule ids *and* line numbers so a rule that drifts
(fires on the wrong line, or stops firing) fails loudly.  The final
tests run the real rules over the real repo — the repo itself must lint
clean — and exercise the ``skyup lint`` CLI surface.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.engine import (
    Finding,
    collect_modules,
    format_json,
    format_text,
    load_baseline,
    run_lint,
    save_baseline,
)
from repro.cli import main
from repro.exceptions import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root: Path, files: dict) -> Path:
    """Write ``{relpath: source}`` under ``root`` and return ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def findings_for(root: Path, rule: str):
    return [f for f in run_lint(root, select=[rule]) if f.rule == rule]


# ---------------------------------------------------------------------------
# engine plumbing


def test_collect_modules_requires_source_tree(tmp_path):
    with pytest.raises(ConfigurationError):
        collect_modules(tmp_path)


def test_collect_modules_rejects_syntax_errors(tmp_path):
    write_tree(tmp_path, {"src/repro/broken.py": "def oops(:\n"})
    with pytest.raises(ConfigurationError):
        collect_modules(tmp_path)


def test_unknown_rule_selector_is_a_config_error(tmp_path):
    write_tree(tmp_path, {"src/repro/ok.py": "x = 1\n"})
    with pytest.raises(ConfigurationError):
        run_lint(tmp_path, select=["SKY999"])


def test_reporters_render_counts(tmp_path):
    write_tree(tmp_path, {"src/repro/ok.py": "x = 1\n"})
    text = format_text(run_lint(tmp_path))
    assert text.endswith("0 findings")
    payload = json.loads(format_json(run_lint(tmp_path)))
    assert payload == {"count": 0, "findings": []}


# ---------------------------------------------------------------------------
# SKY101 / SKY102 — lock discipline

LOCKY = '''\
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []  # guarded-by: _lock
        self.items.append(0)  # constructors are exempt

    def add(self, x):
        with self._lock:
            self.items.append(x)

    def peek(self):
        return len(self.items)

    # holds-lock: _lock
    def _append_locked(self, x):
        self.items.append(x)
'''

GLOBALLY = '''\
import threading

_LOCK = threading.Lock()
_COUNT = 0  # guarded-by: _LOCK


def bump():
    global _COUNT
    with _LOCK:
        _COUNT += 1


def peek():
    return _COUNT
'''


def test_sky101_flags_unlocked_class_attribute_access(tmp_path):
    write_tree(tmp_path, {"src/repro/locky.py": LOCKY})
    found = findings_for(tmp_path, "SKY101")
    assert [(f.line, f.rule) for f in found] == [(15, "SKY101")]
    assert "'items' outside 'with _lock' in Box.peek" in found[0].message


def test_sky101_flags_unlocked_module_global(tmp_path):
    write_tree(tmp_path, {"src/repro/globally.py": GLOBALLY})
    found = findings_for(tmp_path, "SKY101")
    assert [f.line for f in found] == [14]
    assert "_COUNT" in found[0].message


def test_sky101_inline_suppression_silences(tmp_path):
    source = LOCKY.replace(
        "        return len(self.items)",
        "        return len(self.items)  # skyup: ignore[SKY101]",
    )
    write_tree(tmp_path, {"src/repro/locky.py": source})
    assert findings_for(tmp_path, "SKY101") == []


def test_sky101_comment_line_above_suppresses(tmp_path):
    source = LOCKY.replace(
        "        return len(self.items)",
        "        # skyup: ignore[SKY101] — benign snapshot read\n"
        "        return len(self.items)",
    )
    write_tree(tmp_path, {"src/repro/locky.py": source})
    assert findings_for(tmp_path, "SKY101") == []


ALIASED = '''\
import contextlib
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []  # guarded-by: _lock

    def add_via_alias(self, x):
        lk = self._lock
        with lk:
            self.items.append(x)

    def add_via_stack(self, x):
        stack = contextlib.ExitStack()
        stack.enter_context(self._lock)
        self.items.append(x)

    def add_unlocked(self, x):
        lk = self._lock
        self.items.append(x)
'''


def test_sky101_tracks_lock_aliases_and_enter_context(tmp_path):
    write_tree(tmp_path, {"src/repro/aliased.py": ALIASED})
    found = findings_for(tmp_path, "SKY101")
    # The alias acquisition and the ExitStack acquisition both count;
    # merely *naming* the alias without entering it does not.
    assert [(f.line, f.rule) for f in found] == [(22, "SKY101")]
    assert "add_unlocked" in found[0].message


def test_sky101_module_scope_lock_alias(tmp_path):
    source = '''\
import threading

_LOCK = threading.Lock()
_COUNT = 0  # guarded-by: _LOCK


def bump():
    global _COUNT
    guard = _LOCK
    with guard:
        _COUNT += 1
'''
    write_tree(tmp_path, {"src/repro/modalias.py": source})
    assert findings_for(tmp_path, "SKY101") == []


def test_sky102_flags_annotation_naming_missing_lock(tmp_path):
    source = '''\
class Box:
    def __init__(self):
        self.items = []  # guarded-by: _missing
'''
    write_tree(tmp_path, {"src/repro/typo.py": source})
    found = findings_for(tmp_path, "SKY102")
    assert [(f.line, f.rule) for f in found] == [(3, "SKY102")]
    assert "_missing" in found[0].message


# ---------------------------------------------------------------------------
# SKY201 / SKY202 / SKY203 — exception taxonomy

TAXONOMY_FILES = {
    "src/repro/exceptions.py": (
        "class SkyUpError(Exception):\n    pass\n"
    ),
    "src/repro/raisy.py": '''\
from repro.exceptions import SkyUpError


def ok_taxonomy():
    raise SkyUpError("fine")


def ok_builtin():
    raise ValueError("fine")


def bad():
    raise RuntimeError("boom")


def dynamic(exc):
    raise exc  # dynamic raises are out of static reach
''',
}


def test_sky201_flags_off_taxonomy_raise(tmp_path):
    write_tree(tmp_path, TAXONOMY_FILES)
    found = findings_for(tmp_path, "SKY201")
    assert [(f.line, f.rule) for f in found] == [(13, "SKY201")]
    assert "RuntimeError" in found[0].message


def test_sky202_flags_bare_except(tmp_path):
    source = '''\
def swallow():
    try:
        return 1
    except:
        return 0
'''
    write_tree(tmp_path, {"src/repro/bare.py": source})
    found = findings_for(tmp_path, "SKY202")
    assert [(f.line, f.rule) for f in found] == [(4, "SKY202")]


def test_sky203_flags_broad_except_outside_boundary(tmp_path):
    source = '''\
def fragile():
    try:
        return 1
    except Exception:
        return 0


# error-boundary: supervision loop must contain anything
def boundary():
    try:
        return 1
    except Exception:
        return 0
'''
    write_tree(tmp_path, {"src/repro/broad.py": source})
    found = findings_for(tmp_path, "SKY203")
    assert [(f.line, f.rule) for f in found] == [(4, "SKY203")]
    assert "error-boundary" in found[0].message


# ---------------------------------------------------------------------------
# SKY301 — determinism


def test_sky301_flags_entropy_in_core_only(tmp_path):
    core = '''\
import random
import time


def jitter():
    return random.random() + time.time()


def fine(rng):
    return rng.random() + time.monotonic()
'''
    write_tree(
        tmp_path,
        {
            "src/repro/core/noisy.py": core,
            "src/repro/bench/noisy.py": core,  # bench/ is not checked
        },
    )
    found = findings_for(tmp_path, "SKY301")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/core/noisy.py", 6),
        ("src/repro/core/noisy.py", 6),
    ]
    messages = " ".join(f.message for f in found)
    assert "random.random" in messages and "time.time" in messages


def test_sky301_accepts_seeded_generators(tmp_path):
    source = '''\
import random

import numpy as np


def seeded(seed):
    return np.random.default_rng(seed), random.Random(seed)
'''
    write_tree(tmp_path, {"src/repro/core/seeded.py": source})
    assert findings_for(tmp_path, "SKY301") == []


# ---------------------------------------------------------------------------
# SKY401 / SKY402 — injection-point registry

INJECTION_FILES = {
    "src/repro/reliability/faults.py": (
        'INJECTION_POINTS = frozenset({"serve.handler", "rtree.query"})\n'
    ),
    "src/repro/serve/handler.py": '''\
def handle(plan):
    plan.maybe_inject("serve.handler")
    plan.maybe_inject("serve.hanlder")
''',
}


def test_sky401_flags_unregistered_call_site(tmp_path):
    write_tree(tmp_path, INJECTION_FILES)
    found = findings_for(tmp_path, "SKY401")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/serve/handler.py", 3)
    ]
    assert "serve.hanlder" in found[0].message


def test_sky402_flags_unreachable_registry_entry(tmp_path):
    write_tree(tmp_path, INJECTION_FILES)
    found = findings_for(tmp_path, "SKY402")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/reliability/faults.py", 1)
    ]
    assert "rtree.query" in found[0].message


# ---------------------------------------------------------------------------
# SKY501 / SKY502 / SKY503 — kernel-oracle parity

PARITY_FILES = {
    "src/repro/kernels/__init__.py": (
        "from repro.kernels.impl import good_kernel, naked_kernel, "
        "stale_kernel\n"
        '__all__ = ["good_kernel", "naked_kernel", "stale_kernel"]\n'
    ),
    "src/repro/kernels/impl.py": '''\
def good_kernel():
    """Twinned and covered.

    Scalar oracle: `repro.core.thing.scalar_twin`
    """


def naked_kernel():
    """No oracle declared."""


def stale_kernel():
    """Twin was renamed away.

    Scalar oracle: `repro.core.thing.gone_twin`
    """
''',
    "src/repro/core/thing.py": "def scalar_twin():\n    return 0\n",
    "tests/test_kernels_agreement.py": (
        "# exercises good_kernel and naked_kernel only\n"
    ),
}


def test_sky501_flags_missing_oracle_declaration(tmp_path):
    write_tree(tmp_path, PARITY_FILES)
    found = findings_for(tmp_path, "SKY501")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/kernels/impl.py", 8)
    ]
    assert "naked_kernel" in found[0].message


def test_sky502_flags_unresolved_oracle(tmp_path):
    write_tree(tmp_path, PARITY_FILES)
    found = findings_for(tmp_path, "SKY502")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/kernels/impl.py", 12)
    ]
    assert "gone_twin" in found[0].message


def test_sky503_flags_missing_agreement_coverage(tmp_path):
    write_tree(tmp_path, PARITY_FILES)
    found = findings_for(tmp_path, "SKY503")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/kernels/impl.py", 12)
    ]
    assert "stale_kernel" in found[0].message


# ---------------------------------------------------------------------------
# SKY601 — hot-path clock discipline


def test_sky601_flags_raw_perf_counter_in_hot_paths(tmp_path):
    source = '''\
import time
from time import perf_counter


def slow_phase():
    start = time.perf_counter()
    mid = perf_counter()
    return time.monotonic() - start + mid
'''
    write_tree(
        tmp_path,
        {
            "src/repro/serve/hot.py": source,
            "src/repro/core/hot.py": source,
            "src/repro/serve/bench.py": source,  # harness: exempt
            "src/repro/bench/hot.py": source,  # outside checked dirs
        },
    )
    found = findings_for(tmp_path, "SKY601")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/core/hot.py", 6),
        ("src/repro/core/hot.py", 7),
        ("src/repro/serve/hot.py", 6),
        ("src/repro/serve/hot.py", 7),
    ]
    assert "repro.obs" in found[0].message


def test_sky601_accepts_sanctioned_clocks(tmp_path):
    source = '''\
import time

from repro.obs import clock, span


def timed():
    with span("engine.execute"):
        return clock() + time.monotonic()
'''
    write_tree(tmp_path, {"src/repro/serve/clean.py": source})
    assert findings_for(tmp_path, "SKY601") == []


# ---------------------------------------------------------------------------
# SKY701 — planner layering


def test_sky701_flags_plan_importing_upward(tmp_path):
    source = '''\
import repro.serve
from repro.bench.planner import run_planner_bench
from repro.core.join import JoinUpgrader


def plan_it():
    return repro.serve, run_planner_bench, JoinUpgrader
'''
    write_tree(
        tmp_path,
        {
            "src/repro/plan/bad.py": source,
            "src/repro/serve/ok.py": source,  # outside the plan layer
        },
    )
    found = findings_for(tmp_path, "SKY701")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/plan/bad.py", 1),
        ("src/repro/plan/bad.py", 2),
    ]
    assert "repro.serve" in found[0].message


def test_sky701_accepts_downward_imports(tmp_path):
    source = '''\
from repro.core.join import JoinUpgrader
from repro.costs.calibration import fit_attribute_cost
from repro.instrumentation import Counters
from repro.rtree.stats import collect_stats


def fine():
    return JoinUpgrader, fit_attribute_cost, Counters, collect_stats
'''
    write_tree(tmp_path, {"src/repro/plan/good.py": source})
    assert findings_for(tmp_path, "SKY701") == []


# ---------------------------------------------------------------------------
# SKY801/SKY802 — fork/spawn safety


def test_sky801_flags_module_level_primitives_in_shard(tmp_path):
    source = '''\
import threading
from threading import Condition

_LOCK = threading.Lock()
_COND = Condition()


def worker_side():
    local = threading.Lock()  # per-call: fine
    return local
'''
    write_tree(
        tmp_path,
        {
            "src/repro/shard/bad.py": source,
            "src/repro/serve/ok.py": source,  # outside the shard tier
        },
    )
    found = findings_for(tmp_path, "SKY801")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/shard/bad.py", 4),
        ("src/repro/shard/bad.py", 5),
    ]
    assert "threading.Lock" in found[0].message
    assert "spawned worker" in found[0].message


def test_sky801_accepts_instance_locks_and_ignores(tmp_path):
    source = '''\
import threading

_FLAG = threading.Lock()  # skyup: ignore[SKY801]


class Handle:
    def __init__(self):
        self._lock = threading.Lock()
'''
    write_tree(tmp_path, {"src/repro/shard/good.py": source})
    assert findings_for(tmp_path, "SKY801") == []


def test_sky802_flags_multiprocessing_outside_spawn(tmp_path):
    source = '''\
import multiprocessing
from multiprocessing import shared_memory


def go():
    return multiprocessing.get_context(), shared_memory
'''
    write_tree(
        tmp_path,
        {
            "src/repro/shard/engine2.py": source,
            "src/repro/shard/spawn.py": source,  # the sanctioned doorway
            "tests/driver.py": source,  # tests may drive mp directly
        },
    )
    found = findings_for(tmp_path, "SKY802")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/shard/engine2.py", 1),
        ("src/repro/shard/engine2.py", 2),
    ]
    assert "repro.shard.spawn" in found[0].message


def test_sky802_accepts_spawn_helpers(tmp_path):
    source = '''\
from repro.shard.spawn import attach_segment, make_process, make_queue


def go():
    return make_process, make_queue, attach_segment
'''
    write_tree(tmp_path, {"src/repro/shard/fine.py": source})
    assert findings_for(tmp_path, "SKY802") == []


# ---------------------------------------------------------------------------
# SKY901 — unbounded blocking receives


def test_sky901_flags_blocking_get_without_timeout(tmp_path):
    source = '''\
def drain(q):
    a = q.get()
    b = q.get(True)
    c = q.get(block=True)
    return a, b, c
'''
    write_tree(
        tmp_path,
        {
            "src/repro/shard/recv.py": source,
            "src/repro/serve/ok.py": source,  # outside the shard tier
        },
    )
    found = findings_for(tmp_path, "SKY901")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/shard/recv.py", 2),
        ("src/repro/shard/recv.py", 3),
        ("src/repro/shard/recv.py", 4),
    ]
    assert "timeout" in found[0].message


def test_sky901_accepts_bounded_and_non_queue_gets(tmp_path):
    source = '''\
def ok(q, cache, key):
    a = q.get(timeout=0.2)
    b = q.get(True, 0.2)
    c = q.get(block=False)
    d = q.get(False)
    e = q.get_nowait()
    f = cache.get(key)
    g = cache.get(key, None)
    h = q.get()  # skyup: ignore[SKY901]
    return a, b, c, d, e, f, g, h
'''
    write_tree(tmp_path, {"src/repro/shard/fine2.py": source})
    assert findings_for(tmp_path, "SKY901") == []


# ---------------------------------------------------------------------------
# baseline


def test_baseline_round_trip_and_filtering(tmp_path):
    write_tree(tmp_path, {"src/repro/bare.py": "try:\n    pass\nexcept:\n    pass\n"})
    found = run_lint(tmp_path)
    assert [f.rule for f in found] == ["SKY202"]
    baseline_path = tmp_path / "lint-baseline.json"
    save_baseline(baseline_path, found)
    reloaded = load_baseline(baseline_path)
    assert reloaded == found
    assert run_lint(tmp_path, baseline=reloaded) == []


def test_baseline_matches_across_line_drift(tmp_path):
    old = Finding(
        rule="SKY202",
        path="src/repro/bare.py",
        line=999,  # drifted: only (rule, path, message) must match
        col=1,
        message="bare 'except:': name the exception types",
    )
    write_tree(tmp_path, {"src/repro/bare.py": "try:\n    pass\nexcept:\n    pass\n"})
    assert run_lint(tmp_path, baseline=[old]) == []


def test_malformed_baseline_is_a_config_error(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("[]")
    with pytest.raises(ConfigurationError):
        load_baseline(path)


# ---------------------------------------------------------------------------
# the repo itself, and the CLI


def test_repo_lints_clean():
    assert run_lint(REPO_ROOT) == []


def test_cli_lint_exits_zero_on_repo(capsys):
    code = main(["lint", "--root", str(REPO_ROOT)])
    assert code == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_lint_exits_one_with_locations(tmp_path, capsys):
    write_tree(tmp_path, {"src/repro/locky.py": LOCKY})
    code = main(["lint", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "src/repro/locky.py:15:" in out
    assert "SKY101" in out


def test_cli_lint_json_format_parses(tmp_path, capsys):
    write_tree(tmp_path, {"src/repro/locky.py": LOCKY})
    code = main(["lint", "--root", str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "SKY101"


def test_cli_lint_select_restricts_rules(tmp_path, capsys):
    write_tree(
        tmp_path,
        {
            "src/repro/locky.py": LOCKY,
            "src/repro/bare.py": "try:\n    pass\nexcept:\n    pass\n",
        },
    )
    code = main(["lint", "--root", str(tmp_path), "--select", "SKY202"])
    out = capsys.readouterr().out
    assert code == 1
    assert "SKY202" in out and "SKY101" not in out


def test_cli_lint_baseline_workflow(tmp_path, capsys):
    write_tree(tmp_path, {"src/repro/locky.py": LOCKY})
    code = main(
        ["lint", "--root", str(tmp_path), "--baseline", "--update-baseline"]
    )
    assert code == 0
    assert (tmp_path / "lint-baseline.json").is_file()
    capsys.readouterr()
    code = main(["lint", "--root", str(tmp_path), "--baseline"])
    assert code == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "SKY101", "SKY102", "SKY201", "SKY202", "SKY203",
        "SKY301", "SKY401", "SKY402", "SKY501", "SKY502", "SKY503",
    ):
        assert rule_id in out


def test_cli_lint_bad_root_exits_two(tmp_path, capsys):
    code = main(["lint", "--root", str(tmp_path / "nowhere")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
