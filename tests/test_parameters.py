"""Assumption validator, presets, and configuration round-trips."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import mchb.constitutive as cst
import mchb.parameters
from mchb.parameters import (ConfigError, StrictAssumptionError,
                             assumption_report, build_default_scenario, config_from_dict,
                             default_parameters, epsilon_bound, load_config,
                             potential_coercivity_constant, require_assumptions,
                             serialize_config, validate_assumptions, build_specs)


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

    @pytest.mark.parametrize("field, value", [("alpha", "2"), ("chi_phi", "x")])
    def test_mistyped_field_reported_not_raised(self, field, value):
        bad = dataclasses.replace(default_parameters(), **{field: value})
        report = validate_assumptions(bad)
        assert not report.all_pass
        assert any(field in err for err in report.parameter_errors)
        assert report.failing() == [f"A{i}" for i in range(1, 9)]
        assert any("parameter error" in line for line in report.lines())

    @pytest.mark.parametrize("levels, verdict", [
        ({}, True), ({"eta0": 1e-2, "lambda0": 0.0}, True),
        ({"eta0": 0.0}, False), ({"lambda0": -1.0}, False),
        ({"eta0": 1e-2, "lambda0": math.nan}, False)])
    def test_a3_checks_the_levels_given(self, levels, verdict):
        report = validate_assumptions(default_parameters(), **levels)
        assert report.passed["A3"] is verdict
        a3 = next(m for m in report.messages if m.startswith("A3"))
        assert ("no Brinkman viscosity levels supplied" in a3) == (not levels)
        assert all(f"{name}=" in a3 for name in levels)

    def test_a3_reads_the_viscosities_of_brinkman_scenarios_only(self):
        # a Darcy run never reads eta0, so eta0 = 0 is a valid Darcy config
        darcy = config_from_dict({"flow_backend": "darcy", "eta0": 0.0})
        assert assumption_report(darcy).passed["A3"]
        brinkman = build_default_scenario("darcy-limit")
        a3 = [m for m in assumption_report(brinkman).messages
              if m.startswith("A3")]
        assert a3 == [f"A3: 0 < eta0={brinkman.eta0:g} and "
                      f"0 <= lambda0={brinkman.lambda0:g} checked"]

    def test_coupling_past_float_range_fails_a8(self):
        bad = dataclasses.replace(default_parameters(), chi_phi=1e200)
        report = validate_assumptions(bad)
        assert report.eps_bound == 0.0
        assert report.failing() == ["A8"]

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

    def test_coercivity_constant_is_the_infimum(self):
        # stationary point of (1-x)^2 + 1/(3x^2): the root of x^4 - x^3 - 1/3
        x = 1.2
        for _ in range(50):
            x -= (x**4 - x**3 - 1.0 / 3.0) / (4.0 * x**3 - 3.0 * x**2)
        assert x == pytest.approx(1.19522, abs=1e-5)
        a_psi = potential_coercivity_constant()
        star = np.full((3, 1), x)
        val = cst.potential_value(star)
        r2 = (star**2).sum(axis=0)
        assert (val + 1.0) / r2 == pytest.approx(a_psi, rel=0.0, abs=1e-12)
        rng = np.random.default_rng(8)
        near = star + rng.uniform(-1e-3, 1e-3, size=(3, 4000))
        lin = np.linspace(-1e-3, 1e-3, 21)
        cube = star + np.stack([g.ravel() for g in np.meshgrid(lin, lin, lin)])
        for p in (star, near, cube):
            margin = cst.potential_value(p) + 1.0 - a_psi * (p**2).sum(axis=0)
            assert margin.min() >= -1e-12

    def test_validation_idempotent(self):
        m = default_parameters()
        r1 = validate_assumptions(m)
        r2 = validate_assumptions(m)
        assert r1.passed == r2.passed
        assert r1.eps_bound == r2.eps_bound


class TestPresets:
    def test_building_a_preset_allocates_little(self):
        # no cached state may carry an earlier call's allocations
        for obj in vars(mchb.parameters).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        tracemalloc.start()
        try:
            build_default_scenario("zero-source")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

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

    @pytest.mark.parametrize("key, value", [
        ("tol_flow", 1e-9), ("tol_ch", 1e-8), ("max_nonlinear_iter", 50),
        ("init_amplitude", 0.05)])
    def test_solver_constants_are_not_keys(self, key, value):
        # the scheme's tolerances, update cap and the random-smooth
        # amplitude are module constants; naming one, even at its value,
        # is an unknown key
        with pytest.raises(ConfigError,
                           match=f"^unknown configuration keys: {key}$"):
            load_config(json.dumps({key: value}))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            load_config('{"dtt": 1.0}')
        with pytest.raises(ConfigError, match="unknown model"):
            load_config('{"model": {"gammo": 1.0}}')
        with pytest.raises(ConfigError, match="out_dir"):
            load_config('{"out_dir": "runs"}')
        # the nutrient step is a direct solve: its CG tolerance is gone
        with pytest.raises(ConfigError,
                           match="^unknown configuration keys: tol_nutrient$"):
            load_config('{"tol_nutrient": 1e-12}')
        # three phases, one nutrient and two dimensions are the model, not
        # configuration
        with pytest.raises(ConfigError, match="^unknown model keys: L, M, d$"):
            load_config('{"model": {"L": 3, "M": 1, "d": 2}}')

    def test_parse_error_cites_location(self):
        with pytest.raises(ConfigError, match="line 1"):
            load_config("{not json")

    def test_unparsable_documents_are_config_errors(self):
        with pytest.raises(ConfigError, match="parse error"):
            load_config('{"seed": 1' + "0" * 5000 + "}")  # past int's digit limit
        with pytest.raises(ConfigError, match="parse error"):
            load_config("[" * 100000 + "]" * 100000)

    def test_strict_mode_rejects_oversized_epsilon(self):
        doc = json.dumps({"model": {"epsilon": 0.06}})
        cfg = load_config(doc)  # loading checks no assumption
        assert cfg.model.epsilon == 0.06
        with pytest.raises(StrictAssumptionError, match="A8"):
            require_assumptions(load_config(doc))

    @pytest.mark.parametrize("doc, field", [
        ({"grid_nx": "64"}, "grid_nx"),
        ({"grid_nx": 64.5}, "grid_nx"),
        ({"flow_enabled": "no"}, "flow_enabled"),
        ({"t_end": math.nan}, "t_end"),
        ({"flow_backend": "brinkman", "lambda0": math.nan}, "lambda0"),
        ({"model": {"gamma": "1"}}, "gamma"),
        ({"model": {"L": 3.0}}, "L"),
        ({"grid_ny": True}, "grid_ny"),
        ({"snapshot_every": -3}, "snapshot_every"),
        ({"init_modes": 0}, "init_modes"),
        ({"seed": -1}, "seed"),
        ({"dt": 10**400}, "dt"),
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
