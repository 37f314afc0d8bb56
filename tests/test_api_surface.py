"""The consolidated public API: re-exports, EngineConfig, typed options.

This suite pins the surface promised by the serving-API consolidation:
``repro`` re-exports the serving layer, ``EngineConfig`` is the one
construction path, and misspelled
string selectors fail up front with the valid choices listed.
"""

import inspect
import warnings

import numpy as np
import pytest

import repro
from repro.core.api import top_k_upgrades
from repro.core.session import MarketSession
from repro.exceptions import (
    ConfigurationError,
    SkyUpError,
    UnknownOptionError,
)
from repro.serve import EngineConfig, TopKQuery, UpgradeEngine


def make_session(seed=11, n_p=150, n_t=40, dims=2):
    rng = np.random.default_rng(seed)
    return MarketSession.from_points(
        rng.random((n_p, dims)), 1.0 + rng.random((n_t, dims)),
        max_entries=8,
    )


class TestReExports:
    def test_serving_names_are_canonical(self):
        import repro.serve.engine as engine_mod

        assert repro.UpgradeEngine is engine_mod.UpgradeEngine
        assert repro.TopKQuery is engine_mod.TopKQuery
        assert repro.ProductQuery is engine_mod.ProductQuery
        assert repro.Query is engine_mod.Query
        assert repro.QueryResponse is engine_mod.QueryResponse
        assert repro.PendingQuery is engine_mod.PendingQuery

    def test_config_and_kernel_switch_exported(self):
        from repro.kernels.switch import use_kernels
        from repro.serve.config import EngineConfig as deep_config

        assert repro.EngineConfig is deep_config
        assert repro.use_kernels is use_kernels

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_serve_package_is_the_import_surface(self):
        from repro import serve

        for name in serve.__all__:
            assert getattr(serve, name) is not None
        assert "EngineConfig" in serve.__all__


class TestEngineConfig:
    def test_config_construction_does_not_warn(self):
        session = make_session()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with UpgradeEngine(session, EngineConfig(workers=0)) as engine:
                engine.query(TopKQuery(k=2))

    def test_metrics_reports_resolved_config(self):
        session = make_session()
        config = EngineConfig(
            workers=0, batch_max=7, trace_sample_rate=0.25
        )
        with UpgradeEngine(session, config) as engine:
            reported = engine.metrics()["config"]
        assert reported["batch_max"] == 7
        assert reported["trace_sample_rate"] == 0.25
        assert set(reported) == set(EngineConfig.field_names())

    @pytest.mark.parametrize(
        "bad",
        [
            {"workers": -1},
            {"queue_capacity": 0},
            {"batch_max": 0},
            {"trace_sample_rate": 1.5},
            {"trace_store_capacity": 0},
            {"default_deadline_s": -0.1},
        ],
    )
    def test_invalid_values_fail_fast(self, bad):
        with pytest.raises(ConfigurationError):
            EngineConfig(**bad)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineConfig().workers = 4


class TestDefaultMethods:
    """The documented defaults: ``join`` for the one-shot API, ``auto``
    (planner-chosen) for the serving engine."""

    def test_top_k_upgrades_defaults_to_join(self):
        params = inspect.signature(top_k_upgrades).parameters
        assert params["method"].default == "join"

    def test_engine_defaults_to_auto(self):
        assert EngineConfig().method == "auto"


class TestOptionValidation:
    P = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
    T = np.array([[0.9, 0.9], [0.6, 0.6]])

    @pytest.mark.parametrize(
        "kwargs,option,listed",
        [
            ({"method": "joining"}, "method", "probing"),
            ({"bound": "tight"}, "bound", "clb"),
            ({"lbc_mode": "fixed"}, "lbc_mode", "corrected"),
        ],
    )
    def test_unknown_selector_lists_choices(self, kwargs, option, listed):
        with pytest.raises(UnknownOptionError) as excinfo:
            top_k_upgrades(self.P, self.T, **kwargs)
        exc = excinfo.value
        assert exc.option == option
        assert listed in exc.choices
        message = str(exc)
        assert f"unknown {option}" in message and listed in message

    def test_typed_error_is_catchable_as_base(self):
        with pytest.raises(ConfigurationError):
            top_k_upgrades(self.P, self.T, method="nope")
        with pytest.raises(SkyUpError):
            top_k_upgrades(self.P, self.T, bound="nope")
        with pytest.raises(ValueError):
            top_k_upgrades(self.P, self.T, lbc_mode="nope")

    @pytest.mark.parametrize(
        "kwargs,expected",
        [
            ({"method": "jion"}, "join"),
            ({"method": "Probing"}, "probing"),
            ({"bound": "abl"}, "alb"),
            ({"lbc_mode": "papr"}, "paper"),
        ],
    )
    def test_near_miss_gets_suggestion(self, kwargs, expected):
        with pytest.raises(UnknownOptionError) as excinfo:
            top_k_upgrades(self.P, self.T, **kwargs)
        exc = excinfo.value
        assert exc.suggestion == expected
        assert f"did you mean {expected!r}?" in str(exc)

    def test_wild_guess_gets_no_suggestion(self):
        with pytest.raises(UnknownOptionError) as excinfo:
            top_k_upgrades(self.P, self.T, method="quantum")
        assert excinfo.value.suggestion is None
        assert "did you mean" not in str(excinfo.value)

    def test_engine_config_method_suggests(self):
        with pytest.raises(UnknownOptionError) as excinfo:
            EngineConfig(method="atuo")
        assert excinfo.value.suggestion == "auto"

    def test_validation_happens_before_index_build(self):
        # A huge (never materialized) product set would make index
        # construction obvious; the typo must fail before any of that.
        class Exploding:
            def __len__(self):
                raise AssertionError("index build started")

        with pytest.raises(UnknownOptionError):
            top_k_upgrades(self.P, Exploding(), method="nope")

    def test_cli_rejects_unknown_bound(self, capsys):
        from repro.cli import main

        code = main(
            [
                "bench-kernels",
                "--competitors", "10",
                "--products", "5",
                "--bound", "tight",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown bound 'tight'" in err and "'clb'" in err
