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


def _counting(monkeypatch, module_name, attr):
    """Wrap ``module.attr`` as the traced run does; return its call list."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_hooked_algorithm1_names_are_called(monkeypatch):
    """The names the traced run expects calls on are still the call sites.

    A kernels-off top-k prices T-leaves through ``upgrade`` as
    ``repro.core.join`` sees it (the kernel guard's scalar rerun), and a
    kernels-on product query against a skyline past the crossover goes
    through ``upgrade_kernel`` as ``repro.core.upgrade`` sees it.
    """
    from repro.core.session import MarketSession
    from repro.data.generators import paper_workload
    from repro.kernels import use_kernels
    from repro.serve import EngineConfig, ProductQuery, UpgradeEngine

    competitors, products = paper_workload(
        "anti_correlated", 300, 40, 3, 2012
    )
    session = MarketSession.from_points(competitors, products)
    join_upgrade = _counting(monkeypatch, "repro.core.join", "upgrade")
    kernel = _counting(monkeypatch, "repro.core.upgrade", "upgrade_kernel")

    with use_kernels(False):
        assert len(session.top_k(3).results) == 3
    assert join_upgrade

    product = session.product_point(0)
    assert len(session.dominator_skyline(product)) >= 48
    with use_kernels(True), UpgradeEngine(
        session, EngineConfig(workers=0)
    ) as engine:
        engine.query(ProductQuery(0))
    assert kernel
