"""Energy, dissipation, masses, and the one-step energy identity."""

import dataclasses

import numpy as np
import pytest

from mchb.diagnostics import (boundary_absorption, component_masses,
                              dissipation_rate, energy_law_residual,
                              free_energy, nutrient_bc)
import mchb.constitutive as cst
from mchb.flow import solve_darcy
from mchb.grid import (NEUMANN, FaceVector, Field, Grid, face_gradient,
                       inner_product)
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
        assert dissipation_rate(state, bundle) \
            == pytest.approx(0.0, abs=1e-13)

    def test_single_mode_chemical_potential(self, grid):
        # K = 0 keeps the Robin wall flux out of the nutrient term
        bundle = build_specs(default_parameters(K=0.0))
        state = uniform_state(grid)
        x, _ = grid.cell_centers()
        state.mu[0] = 0.7 * np.cos(np.pi * x)
        got = dissipation_rate(state, bundle)
        exact = 0.7**2 * np.pi**2 * 0.5
        assert got == pytest.approx(exact, rel=5e-3)

    def test_quadratic_scaling(self, grid):
        # K = 0 isolates the chemical-potential quadratic form
        bundle = build_specs(default_parameters(K=0.0))
        state = uniform_state(grid)
        rng = np.random.default_rng(0)
        state.mu = rng.standard_normal(state.mu.shape)
        d1 = dissipation_rate(state, bundle)
        state.mu *= 2.0
        assert dissipation_rate(state, bundle) \
            == pytest.approx(4.0 * d1, rel=1e-12)

    def test_nonnegative_on_random_states(self, grid, bundle):
        rng = np.random.default_rng(5)
        for _ in range(5):
            state = uniform_state(grid)
            state.phi = rng.standard_normal(state.phi.shape)
            state.mu = rng.standard_normal(state.mu.shape)
            state.sigma = rng.standard_normal(state.sigma.shape)
            assert dissipation_rate(state, bundle) >= 0.0

    def test_boundary_absorption_at_equilibrium_trace(self, grid):
        # sigma == sigma_Gamma gives a flux-free wall, so the trace is exact
        b = build_specs(default_parameters(K=2.0, sigma_Gamma=0.8,
                                           sigma_Omega=0.8))
        state = uniform_state(grid, sigma_val=0.8)
        got = boundary_absorption(state, b)
        assert got == pytest.approx(2.0 * 1.0 * 0.8**2 * 4.0, rel=1e-12)


def face_free_energy(state, bundle):
    """``free_energy`` summed over the ghost-closed face gradients."""
    g, m = state.grid, bundle.params
    e = m.gamma / m.epsilon * float(cst.potential_value(state.phi).sum()) \
        * g.cell_area
    for c in state.phi:
        fv = face_gradient(Field(c, NEUMANN, g))
        e += 0.5 * m.gamma * m.epsilon * inner_product(fv, fv)
    n_val, _, _, _ = cst.chemical_energy(state.phi, state.sigma, bundle.chem)
    return e + float(n_val.sum()) * g.cell_area


def face_dissipation(state, bundle):
    """``dissipation_rate`` summed over the ghost-closed face gradients: the
    nutrient flux chi grad(sigma) - B grad(phi) with sigma under the
    nutrient wall closure."""
    g, chem = state.grid, bundle.chem
    total = 0.0
    for c in state.mu:
        fv = face_gradient(Field(c, NEUMANN, g))
        total += inner_product(fv, fv)
    fs = face_gradient(Field(state.sigma[0], nutrient_bc(bundle), g))
    gx, gy = chem.chi_sigma * fs.gx, chem.chi_sigma * fs.gy
    for l, c in enumerate(state.phi):
        fp = face_gradient(Field(c, NEUMANN, g))
        gx -= chem.coupling[0, l] * fp.gx
        gy -= chem.coupling[0, l] * fp.gy
    flux = FaceVector(gx, gy, g)
    return total + inner_product(flux, flux)


class TestInteriorDifferenceSums:
    """The interior-difference sums against the face-gradient formulas."""

    @pytest.mark.parametrize("nx, ny, lx", [(16, 24, 1.7), (64, 64, 1.0)])
    @pytest.mark.parametrize("k", [0.0, 1.5])
    def test_match_face_gradient_sums(self, nx, ny, lx, k):
        bundle = build_specs(default_parameters(K=k, sigma_Gamma=0.6))
        grid = Grid(nx, ny, lx, 1.0)
        rng = np.random.default_rng(nx + int(10 * k))
        for _ in range(3):
            state = uniform_state(grid)
            state.phi = rng.uniform(0.0, 0.3, state.phi.shape)
            state.mu = rng.standard_normal(state.mu.shape)
            state.sigma = rng.uniform(0.0, 1.0, state.sigma.shape)
            assert free_energy(state, bundle)[0] == pytest.approx(
                face_free_energy(state, bundle), rel=1e-13, abs=0.0)
            assert dissipation_rate(state, bundle) == pytest.approx(
                face_dissipation(state, bundle), rel=1e-13, abs=0.0)


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
                                  None)
        assert rep.identity_residual == pytest.approx(0.0, abs=1e-12)

    def test_signed_residual_is_overdissipative_without_flow(self):
        cfg = dataclasses.replace(build_default_scenario("zero-source"),
                                  grid_nx=16, grid_ny=16, flow_enabled=False)
        stepper = TimeStepper(cfg)
        s0 = build_initial_state(cfg, stepper.bundle)
        s1, rep = stepper.step(s0, cfg.dt)
        assert rep.energy.residual_signed < 0.0
        assert rep.energy.identity_residual == -rep.energy.residual_signed

    def test_robin_wall_work_counted_with_sources_off(self):
        # with K > 0 the Robin wall works on the nutrient whatever the source
        # switch says; with that work counted the residual halves with
        # (h, dt), as it does at K = 0
        base = build_default_scenario("zero-source")
        cfg = dataclasses.replace(base, model=default_parameters(K=1.0),
                                  sources_enabled=False, flow_enabled=False,
                                  init_modes=2)
        resids = []
        for k, n in enumerate((16, 32)):
            c = dataclasses.replace(cfg, grid_nx=n, grid_ny=n,
                                    dt=base.dt / 2**k)
            stepper = TimeStepper(c)
            s = build_initial_state(c, stepper.bundle)
            for _ in range(8 * 2**k):
                s, rep = stepper.step(s, c.dt)
            resids.append(rep.energy.residual_signed)
        assert resids[0] / resids[1] == pytest.approx(2.0, abs=0.2)

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
            flow = solve_darcy(terms.force, terms.s_v, cfg.model.nu,
                               stepper.grid, tol=cfg.tol_flow)
            redo = energy_law_residual(
                before, after, cfg.dt, stepper.bundle, terms,
                transport_terms(before, after.v, terms.s_v),
                flow_dissipation=flow.dissipation)
            assert redo == rep.energy
            before = after
