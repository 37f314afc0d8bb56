"""The benchmark's traced entry points still exist in the program.

``perfbench/layers.py`` patches a fixed list of ``module:attribute``
hooks by name, and ``perfbench/measure.py`` fails a traced run when an
expected hook records no call.  A refactor that drops an import or
renames a method breaks both, but only a 40 s traced benchmark run would
notice; these checks catch it in the unit suite.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    # measure.py imports its sibling as ``layers``.
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield _load("layers"), _load("measure")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("layers", None)


def _hook_keys(layers):
    keys = {f"{module}:{path}" for _, module, path in layers.HOOKS}
    module, table, entry = layers.SPLIT_TABLE
    keys.add(f"{module}:{table}[{entry!r}]")
    return keys


def test_every_hook_resolves(perfbench):
    layers, _ = perfbench
    missing = []
    for _, module_name, path in layers.HOOKS:
        owner = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(owner, cls_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = hasattr(owner, path)
        if not found:
            missing.append(f"{module_name}:{path}")
    assert missing == []
    module_name, table, entry = layers.SPLIT_TABLE
    assert entry in getattr(importlib.import_module(module_name), table)


def test_every_expected_name_is_a_hook(perfbench):
    layers, measure = perfbench
    keys = _hook_keys(layers)
    for workload, expected in measure.EXPECTED.items():
        assert sorted(set(expected) - keys) == [], workload
