"""Energy, dissipation, masses, and the one-step energy identity."""

import dataclasses

import numpy as np
import pytest

import mchb.constitutive as cst
from mchb.diagnostics import (boundary_absorption, component_masses,
                              dissipation_rate, energy_law_residual,
                              free_energy)
from mchb.grid import Grid
from mchb.parameters import build_default_scenario, build_specs, \
    default_parameters
from mchb.state import StateFields, build_initial_state
from mchb.stepping import TimeStepper, explicit_terms, transport_terms


def uniform_state(grid, phi_vals=(0.0, 0.0, 0.0), sigma_val=0.0):
    phi = np.zeros((3,) + grid.shape)
    for i, v in enumerate(phi_vals):
        phi[i] = v
    return StateFields(phi=phi, mu=np.zeros((3,) + grid.shape),
                       sigma=np.full((1,) + grid.shape, sigma_val),
                       v=np.zeros((2,) + grid.shape), p=np.zeros(grid.shape),
                       t=0.0, grid=grid)


def mobilities(state, bundle):
    return cst.mobility(state.phi, state.sigma, bundle.mobility)


@pytest.fixture
def grid():
    return Grid(32, 32, 1.0, 1.0)


@pytest.fixture
def bundle():
    return build_specs(default_parameters())


class TestFreeEnergy:
    def test_pure_phase_zero_energy(self, grid, bundle):
        state = uniform_state(grid, (1.0, 0.0, 0.0), 0.0)
        e, gl, chem = free_energy(state, bundle)
        assert e == pytest.approx(0.0, abs=1e-13)
        assert gl == pytest.approx(0.0, abs=1e-13)
        assert chem == pytest.approx(0.0, abs=1e-13)

    def test_constant_nutrient_energy(self, grid, bundle):
        s0 = 1.7
        state = uniform_state(grid, (0.0, 0.0, 0.0), s0)
        e, _, chem = free_energy(state, bundle)
        expect = grid.area * 0.5 * bundle.params.chi_sigma * s0**2
        assert e == pytest.approx(expect, rel=1e-13)
        assert chem == pytest.approx(expect, rel=1e-13)

    def test_cosine_gradient_energy_closed_form(self, bundle):
        # int |grad(A cos(k pi x / lx))|^2 = A^2 (k pi / lx)^2 |Omega| / 2
        m = bundle.params
        errs = []
        for n in (32, 64, 128):
            g = Grid(n, n, 1.0, 1.0)
            x, _ = g.cell_centers()
            state = uniform_state(g)
            state.phi[0] = 0.2 * np.cos(2 * np.pi * x)
            _, gl, _ = free_energy(state, bundle)
            psi_int = (state.phi[0]**2 * (1 - state.phi[0])**2).sum() * g.cell_area
            grad_part = gl - m.gamma / m.epsilon * psi_int
            exact = 0.5 * m.gamma * m.epsilon * 0.2**2 * (2 * np.pi) ** 2 * 0.5
            errs.append(abs(grad_part - exact))
        assert errs[0] / errs[2] > 10.0  # roughly O(h^2)


class TestDissipation:
    def test_uniform_state_zero(self, grid, bundle):
        state = uniform_state(grid, (0.3, 0.2, 0.1), 1.0)
        assert dissipation_rate(state, bundle, *mobilities(state, bundle)) \
            == pytest.approx(0.0, abs=1e-13)

    def test_single_mode_chemical_potential(self, grid):
        # K = 0 keeps the Robin wall flux out of the nutrient term
        bundle = build_specs(default_parameters(K=0.0))
        state = uniform_state(grid)
        x, _ = grid.cell_centers()
        state.mu[0] = 0.7 * np.cos(np.pi * x)
        got = dissipation_rate(state, bundle, *mobilities(state, bundle),
                               include_flow=False)
        exact = 0.7**2 * np.pi**2 * 0.5
        assert got == pytest.approx(exact, rel=5e-3)

    def test_quadratic_scaling(self, grid):
        # K = 0 isolates the chemical-potential quadratic form
        bundle = build_specs(default_parameters(K=0.0))
        state = uniform_state(grid)
        rng = np.random.default_rng(0)
        state.mu = rng.standard_normal(state.mu.shape)
        mob = mobilities(state, bundle)
        d1 = dissipation_rate(state, bundle, *mob, include_flow=False)
        state.mu *= 2.0
        assert dissipation_rate(state, bundle, *mob, include_flow=False) \
            == pytest.approx(4.0 * d1, rel=1e-12)

    def test_nonnegative_on_random_states(self, grid, bundle):
        rng = np.random.default_rng(5)
        for _ in range(5):
            state = uniform_state(grid)
            state.phi = rng.standard_normal(state.phi.shape)
            state.mu = rng.standard_normal(state.mu.shape)
            state.sigma = rng.standard_normal(state.sigma.shape)
            state.v = rng.standard_normal(state.v.shape)
            assert dissipation_rate(state, bundle, *mobilities(state, bundle),
                                    flow_backend="brinkman") >= 0.0

    def test_boundary_absorption_at_equilibrium_trace(self, grid):
        # sigma == sigma_Gamma gives a flux-free wall, so the trace is exact
        b = build_specs(default_parameters(K=2.0, sigma_Gamma=0.8,
                                           sigma_Omega=0.8))
        state = uniform_state(grid, sigma_val=0.8)
        got = boundary_absorption(state, b, mobilities(state, b)[1])
        assert got == pytest.approx(2.0 * 1.0 * 0.8**2 * 4.0, rel=1e-12)


class TestMasses:
    def test_empty_tumor(self, grid, bundle):
        state = uniform_state(grid)
        phi_m, sig_m, healthy = component_masses(state)
        assert np.all(phi_m == 0.0)
        assert healthy == pytest.approx(grid.area)

    def test_pure_phase(self, grid, bundle):
        state = uniform_state(grid, (1.0, 0.0, 0.0))
        phi_m, _, healthy = component_masses(state)
        assert phi_m[0] == pytest.approx(grid.area)
        assert healthy == pytest.approx(0.0, abs=1e-12)

    def test_sum_identity(self, grid):
        rng = np.random.default_rng(9)
        state = uniform_state(grid)
        state.phi = rng.uniform(0, 0.4, state.phi.shape)
        phi_m, _, healthy = component_masses(state)
        assert abs(phi_m.sum() + healthy - grid.area) <= 1e-14 * max(1, grid.area)


class TestEnergyIdentity:
    def test_equilibrium_states_zero_residual(self, grid):
        cfg = dataclasses.replace(build_default_scenario("zero-source"),
                                  grid_nx=32, grid_ny=32)
        bundle = build_specs(cfg.model)
        state = uniform_state(grid, (1.0, 0.0, 0.0), cfg.model.sigma_Omega)
        terms = explicit_terms(state, bundle, False, False)
        rep = energy_law_residual(state, state.copy(), 1e-3, bundle, terms,
                                  None, sources_enabled=False)
        assert rep.identity_residual == pytest.approx(0.0, abs=1e-12)

    def test_signed_residual_is_overdissipative_without_flow(self):
        cfg = dataclasses.replace(build_default_scenario("zero-source"),
                                  grid_nx=16, grid_ny=16, flow_enabled=False)
        stepper = TimeStepper(cfg)
        s0 = build_initial_state(cfg, stepper.bundle)
        s1, rep = stepper.step(s0, cfg.dt)
        assert rep.energy.residual_signed < 0.0
        assert rep.energy.identity_residual == -rep.energy.residual_signed

    def test_report_consistency_between_paths(self):
        # the identity rebuilt through the builders is the stepper's, bit
        # for bit, on a first step and on one with the carried energy
        cfg = dataclasses.replace(build_default_scenario("zero-source"),
                                  grid_nx=16, grid_ny=16, sources_enabled=True)
        stepper = TimeStepper(cfg)
        before = build_initial_state(cfg, stepper.bundle)
        for _ in range(2):
            after, rep = stepper.step(before, cfg.dt)
            terms = explicit_terms(before, stepper.bundle, True, True)
            redo = energy_law_residual(
                before, after, cfg.dt, stepper.bundle, terms,
                transport_terms(before, after.v, terms.s_v),
                flow_backend="darcy", sources_enabled=True)
            assert redo == rep.energy
            before = after

    def test_boundary_term_uses_the_step_mobility(self):
        # the Robin closure of the boundary term is the one the nutrient
        # solve used: the mean nutrient mobility of the starting state
        cfg = dataclasses.replace(build_default_scenario("stratified-tumor"),
                                  grid_nx=16, grid_ny=16, flow_enabled=False)
        spec = cst.MobilitySpec(d_func=lambda p, s: 1.0 + 0.5 * s[0]**2)
        bundle = build_specs(cfg.model, mobility=spec)
        s0 = build_initial_state(cfg, bundle)
        s1, rep = TimeStepper(cfg, bundle).step(s0, cfg.dt)
        before, after = (boundary_absorption(s1, bundle, mobilities(s, bundle)[1])
                         for s in (s0, s1))
        assert rep.energy.boundary_term == before != after
