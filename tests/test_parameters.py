"""Assumption validator, presets, and configuration round-trips."""

import dataclasses
import json
import math

import pytest

from mchb.parameters import (ConfigError, StrictAssumptionError,
                             build_default_scenario, config_from_dict,
                             default_parameters, epsilon_bound, load_config,
                             potential_coercivity_constant, serialize_config,
                             validate_assumptions, build_specs)


class TestValidator:
    def test_defaults_pass_all(self):
        report = validate_assumptions(default_parameters())
        assert report.all_pass
        assert report.failing() == []

    def test_oversized_epsilon_fails_exactly_a8(self):
        base = default_parameters()
        report0 = validate_assumptions(base)
        bad = dataclasses.replace(base, epsilon=10.0 * report0.eps_bound)
        report = validate_assumptions(bad)
        assert report.failing() == ["A8"]
        msg = " ".join(report.messages)
        assert "epsilon < gamma*chi_sigma*A_psi/(8*C_G^2)" in msg

    def test_parameter_ordering_reported_first(self):
        bad = dataclasses.replace(default_parameters(), kappa=1.5)
        report = validate_assumptions(bad)
        assert report.parameter_errors
        assert "kappa" in report.parameter_errors[0]
        assert not report.all_pass

    def test_eps_bound_formula(self):
        m = default_parameters()
        report = validate_assumptions(m)
        expected = m.gamma * m.chi_sigma * report.a_psi / (8.0 * report.c_g**2)
        assert report.eps_bound == pytest.approx(expected, rel=1e-14)
        assert report.eps_bound > 0.0

    def test_default_epsilon_under_bound(self):
        m = default_parameters()
        assert m.epsilon < epsilon_bound(m, build_specs(m).chem)

    def test_coercivity_constant_positive_and_coercive(self):
        import numpy as np
        import mchb.constitutive as cst
        a_psi = potential_coercivity_constant()
        assert 0.0 < a_psi < 4.0 / 3.0
        rng = np.random.default_rng(2)
        p = rng.uniform(-6, 7, size=(3, 2000))
        val, _, _ = cst.potential_eval(p)
        assert np.all(val >= a_psi * (p**2).sum(axis=0) - 1.0 - 1e-9)

    def test_validation_idempotent(self):
        m = default_parameters()
        r1 = validate_assumptions(m)
        r2 = validate_assumptions(m)
        assert r1.passed == r2.passed
        assert r1.eps_bound == r2.eps_bound


class TestPresets:
    def test_zero_source_preset(self):
        cfg = build_default_scenario("zero-source")
        assert cfg.sources_enabled is False
        assert cfg.model.K == 0.0

    def test_stratified_preset_resolves(self):
        cfg = build_default_scenario("stratified-tumor")
        assert cfg.initial_condition == "stratified"
        assert cfg.t_end > 0 and cfg.dt > 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            build_default_scenario("unknown")

    def test_default_dt_scale(self):
        cfg = build_default_scenario("stratified-tumor")
        m = cfg.model
        assert cfg.dt == pytest.approx(0.1 * m.epsilon**2 / m.gamma)


class TestConfigDocuments:
    def test_empty_document_gives_defaults(self):
        assert load_config("") == build_default_scenario("stratified-tumor")
        assert load_config("{}") == build_default_scenario("stratified-tumor")

    def test_round_trip_identity(self):
        cfg = build_default_scenario("zero-source")
        assert load_config(serialize_config(cfg)) == cfg

    def test_zero_dt_rejected(self):
        with pytest.raises(ConfigError, match="dt"):
            load_config('{"dt": 0.0}')

    def test_zero_nonlinear_iterations_rejected(self):
        with pytest.raises(ConfigError, match="max_nonlinear_iter"):
            config_from_dict({"max_nonlinear_iter": 0})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            load_config('{"dtt": 1.0}')
        with pytest.raises(ConfigError, match="unknown model"):
            load_config('{"model": {"gammo": 1.0}}')

    def test_parse_error_cites_location(self):
        with pytest.raises(ConfigError, match="line 1"):
            load_config("{not json")

    def test_strict_mode_rejects_oversized_epsilon(self):
        doc = json.dumps({"model": {"epsilon": 0.06}})
        cfg = load_config(doc)  # non-strict downgrades to a warning
        assert cfg.model.epsilon == 0.06
        with pytest.raises(StrictAssumptionError, match="A8"):
            load_config(doc, strict=True)

    @pytest.mark.parametrize("doc, field", [
        ({"grid_nx": "64"}, "grid_nx"),
        ({"grid_nx": 64.5}, "grid_nx"),
        ({"flow_enabled": "no"}, "flow_enabled"),
        ({"t_end": math.nan}, "t_end"),
        ({"flow_backend": "brinkman", "lambda0": math.nan}, "lambda0"),
        ({"model": {"gamma": "1"}}, "gamma"),
        ({"model": {"L": 3.0}}, "L"),
        ({"tol_ch": -1e-12}, "tol_ch"),
        ({"snapshot_every": -3}, "snapshot_every"),
        ({"init_modes": 0}, "init_modes"),
        ({"seed": -1}, "seed"),
    ])
    def test_malformed_values_rejected(self, doc, field):
        with pytest.raises(ConfigError, match=field):
            config_from_dict(doc)
        with pytest.raises(ConfigError, match=field):
            load_config(json.dumps(doc))

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            config_from_dict({"grid_nx": 4})
        with pytest.raises(ConfigError):
            config_from_dict({"flow_backend": "stokes"})
        with pytest.raises(ConfigError):
            config_from_dict({"flow_backend": "brinkman", "eta0": 0.0})
        with pytest.raises(ConfigError, match="kappa"):
            config_from_dict({"model": {"kappa": 2.0}})
