"""Time stepper: fixed points, splitting order, conservation, run control."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.optimize import newton_krylov

import mchb.constitutive as cst
import mchb.diagnostics
import mchb.stepping
from mchb.grid import NEUMANN, Robin, arithmetic_face_coefficients, \
    fv_diffusion_matrix
from mchb.diagnostics import component_masses, free_energy
from mchb.parameters import ConfigError, build_default_scenario, build_specs
from mchb.state import StateFields, build_initial_state
from mchb.stepping import TimeStepper


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call."""
    calls = []
    orig = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def bundle_with(cfg, mobility):
    return build_specs(cfg.model, source_variant=cfg.source_variant,
                       eta0=cfg.eta0, lambda0=cfg.lambda0, mobility=mobility)


def small_config(**over):
    cfg = build_default_scenario("zero-source")
    defaults = dict(grid_nx=16, grid_ny=16, init_modes=2)
    defaults.update(over)
    return dataclasses.replace(cfg, **defaults)


class ReferenceImplicit:
    """Backward-Euler Newton solve of the coupled system with v = 0.

    Shares the spatial operators with the package so the comparison isolates
    the time-splitting error; the potential enters without the convex split
    and all couplings and sources are taken at the new time level.
    """

    def __init__(self, stepper: TimeStepper):
        self.st = stepper
        g = stepper.grid
        m = stepper.config.model
        bundle = stepper.bundle
        self.a_neu, _ = fv_diffusion_matrix(g, NEUMANN)
        dfc = arithmetic_face_coefficients(np.ones(g.shape), g)
        k = bundle.sources.k_boundary
        bc = Robin(k=k, target=bundle.sources.sigma_gamma,
                   diffusivity=bundle.chem.chi_sigma) if k > 0 else NEUMANN
        self.a_rob, self.rhs_rob = fv_diffusion_matrix(
            g, bc, bundle.chem.chi_sigma * dfc[0], bundle.chem.chi_sigma * dfc[1])
        self.a_d, _ = fv_diffusion_matrix(g, NEUMANN, dfc[0], dfc[1])

    def step(self, state: StateFields, dt: float) -> StateFields:
        st, g = self.st, self.st.grid
        m = st.config.model
        bundle = st.bundle
        n = g.ncells
        phin = state.phi.reshape(3, n)
        sign = state.sigma.reshape(1, n)
        sources_on = st.config.sources_enabled

        def residual(x):
            phi = x[:3 * n].reshape(3, n)
            sig = x[3 * n:].reshape(1, n)
            P = phi.reshape(3, g.ny, g.nx)
            S = sig.reshape(1, g.ny, g.nx)
            _, grad, _ = cst.potential_eval(P)
            _, n_phi, _, _ = cst.chemical_energy(P, S, bundle.chem)
            if sources_on:
                s_phi = cst.source_phase(P, S, np.zeros_like(P),
                                         bundle.sources).reshape(3, n)
                s_sig = cst.source_nutrient(P, S, np.zeros_like(P),
                                            bundle.sources).reshape(1, n)
            else:
                s_phi = np.zeros((3, n))
                s_sig = np.zeros((1, n))
            out = np.empty_like(x)
            for i in range(3):
                mu = m.gamma * m.epsilon * (self.a_neu @ phi[i]) \
                    + m.gamma / m.epsilon * grad[i].ravel() + n_phi[i].ravel()
                out[i * n:(i + 1) * n] = phi[i] - phin[i] \
                    + dt * (self.a_neu @ mu) - dt * s_phi[i]
            bphi = np.einsum("ml,ln->mn", bundle.chem.coupling, phi)[0]
            out[3 * n:] = sig[0] - sign[0] \
                + dt * (self.a_rob @ sig[0] - self.rhs_rob - self.a_d @ bphi) \
                + dt * s_sig[0]
            return out

        x0 = np.concatenate([phin.ravel(), sign.ravel()])
        x = newton_krylov(residual, x0, f_tol=1e-13, maxiter=200)
        out = state.copy()
        out.phi = x[:3 * n].reshape(3, g.ny, g.nx)
        out.sigma = x[3 * n:].reshape(1, g.ny, g.nx)
        out.t = state.t + dt
        return out


class TestFixedPoint:
    def test_uniform_equilibrium_unchanged(self):
        cfg = small_config(initial_condition="uniform")
        st = TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        s1, rep = st.step(s0, cfg.dt)
        assert np.abs(s1.phi - s0.phi).max() == pytest.approx(0.0, abs=1e-13)
        assert np.abs(s1.sigma - s0.sigma).max() == pytest.approx(0.0, abs=1e-13)
        assert np.abs(s1.v).max() == pytest.approx(0.0, abs=1e-13)


class TestSplittingOrder:
    def test_one_step_vs_fully_implicit(self):
        cfg = small_config(sources_enabled=True, flow_enabled=False)
        st = TimeStepper(cfg)
        ref = ReferenceImplicit(st)
        s0 = build_initial_state(cfg, st.bundle)
        w = st.grid.cell_area
        dts = [4 * cfg.dt, 2 * cfg.dt, cfg.dt]
        diffs = []
        for dt in dts:
            ours, _ = st.step(s0, dt)
            theirs = ref.step(s0, dt)
            diffs.append(np.sqrt(((ours.phi - theirs.phi)**2).sum() * w))
        slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
        assert slope >= 1.8

    def test_global_error_first_order(self):
        cfg = small_config(sources_enabled=True, flow_enabled=False)
        st = TimeStepper(cfg)
        ref = ReferenceImplicit(st)
        s0 = build_initial_state(cfg, st.bundle)
        w = st.grid.cell_area
        t_end = 8 * cfg.dt
        diffs, dts = [], []
        for split in (2, 4, 8):
            dt = t_end / split
            ours, theirs = s0, s0
            for _ in range(split):
                ours, _ = st.step(ours, dt)
                theirs = ref.step(theirs, dt)
            diffs.append(np.sqrt(((ours.phi - theirs.phi)**2).sum() * w))
            dts.append(dt)
        slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
        assert slope >= 0.9


class TestConservation:
    def test_zero_source_masses_per_step(self):
        cfg = small_config(flow_enabled=False, grid_nx=32, grid_ny=32)
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        m_prev, _, _ = component_masses(s)
        for _ in range(5):
            s, _ = st.step(s, cfg.dt)
            m_now, _, healthy = component_masses(s)
            assert np.abs(m_now - m_prev).max() <= 1e-10 * st.grid.area
            assert abs(m_now.sum() + healthy - st.grid.area) <= 1e-14
            m_prev = m_now

    def test_pure_ch_energy_monotone(self):
        cfg = small_config(flow_enabled=False, grid_nx=32, grid_ny=32)
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        e_prev, _, _ = free_energy(s, st.bundle)
        for _ in range(10):
            s, rep = st.step(s, cfg.dt)
            assert rep.energy_after < e_prev
            e_prev = rep.energy_after


class TestRunControl:
    def test_zero_horizon_initial_snapshot_only(self):
        cfg = small_config(t_end=0.0)
        calls = []

        class Writer:
            def snapshot(self, state, step):
                calls.append(step)

            def write_row(self, row):
                calls.append(("row", row))

        summary = TimeStepper(cfg).run(Writer())
        assert calls == [0]
        assert not summary.aborted and summary.reports == []

    def test_dt_halving_then_abort(self):
        # an unresolvable step: one nonlinear iteration allowed, huge dt
        cfg = small_config(sources_enabled=True, flow_enabled=False,
                           dt=1.0, t_end=2.0, max_nonlinear_iter=1)
        summary = TimeStepper(cfg).run()
        assert summary.aborted
        assert "halv" in summary.message
        assert summary.dt_final < 1.0

    def test_run_summary_energies(self):
        cfg = small_config(t_end=3 * small_config().dt)
        summary = TimeStepper(cfg).run()
        assert len(summary.reports) == 3
        assert np.all(np.isfinite(summary.energies))
        assert summary.e_initial >= summary.energies[-1]

    def test_step_rejects_bad_dt(self):
        cfg = small_config()
        st = TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        with pytest.raises(ValueError):
            st.step(s0, 0.0)


class TestTransformPhaseSolve:
    @pytest.mark.parametrize("preset", ["zero-source", "stratified-tumor"])
    def test_matches_factorized_path(self, preset, monkeypatch):
        cfg = dataclasses.replace(build_default_scenario(preset),
                                  grid_nx=32, grid_ny=32)
        fast = TimeStepper(cfg)
        # a constant-one mobility function is the same operator, but no
        # transform is assumed for it, so it takes the LU path
        ones = cst.MobilitySpec(m_funcs=(lambda p, s: 1.0,) * 3)
        ref = TimeStepper(cfg, bundle_with(cfg, ones))
        a = b = build_initial_state(cfg, fast.bundle)
        factorizations = counting(monkeypatch, spla, "splu")
        for k in range(10):
            a, rep_a = fast.step(a, cfg.dt)
            assert len(factorizations) == 3 * k
            b, rep_b = ref.step(b, cfg.dt)
            assert np.abs(a.phi - b.phi).max() <= 1e-10
            assert rep_a.energy_after == pytest.approx(rep_b.energy_after,
                                                       rel=1e-10, abs=0.0)
        assert len(factorizations) == 30

    def test_mobility_floor_scales_transform_path(self, monkeypatch):
        # with no m_funcs the phase mobility is the constant max(1, floor),
        # which the transform path must use, as the LU path does
        cfg = small_config(flow_enabled=False)
        floored = cst.MobilitySpec(floor=2.0)
        twos = cst.MobilitySpec(m_funcs=(lambda p, s: 2.0,) * 3, floor=2.0)
        fast = TimeStepper(cfg, bundle_with(cfg, floored))
        ref = TimeStepper(cfg, bundle_with(cfg, twos))
        s0 = build_initial_state(cfg, fast.bundle)
        factorizations = counting(monkeypatch, spla, "splu")
        a, _ = fast.step(s0, cfg.dt)
        assert factorizations == []
        b, _ = ref.step(s0, cfg.dt)
        assert np.abs(a.phi - b.phi).max() <= cfg.tol_ch

    def test_large_step_falls_back_to_factorization(self, monkeypatch):
        cfg = build_default_scenario("stratified-tumor")
        st = TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        factorizations = counting(monkeypatch, spla, "splu")
        s1, rep = st.step(s0, 64 * cfg.dt)
        assert len(factorizations) == 3
        s1.check_finite()
        assert rep.energy_after < rep.energy_before
        assert rep.picard_iters <= cfg.max_nonlinear_iter


class TestStepWork:
    def test_zero_nonlinear_iterations_rejected(self):
        with pytest.raises(ConfigError, match="max_nonlinear_iter"):
            TimeStepper(dataclasses.replace(small_config(),
                                            max_nonlinear_iter=0))

    def test_energy_before_reused_from_energy_law(self, monkeypatch):
        cfg = small_config()
        st = TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        e0, _, _ = free_energy(s0, st.bundle)
        calls = counting(monkeypatch, mchb.diagnostics, "free_energy")
        _, rep = st.step(s0, cfg.dt)
        assert len(calls) == 2
        assert rep.energy_before == e0

    def test_energy_after_carried_to_next_step(self, monkeypatch):
        cfg = small_config()
        st = TimeStepper(cfg)
        s1, rep1 = st.step(build_initial_state(cfg, st.bundle), cfg.dt)
        calls = counting(monkeypatch, mchb.diagnostics, "free_energy")
        _, rep2 = st.step(s1, cfg.dt)
        assert len(calls) == 1
        assert rep2.energy_before == rep1.energy_after

    def test_state_mutated_in_place_recomputes_energy(self, monkeypatch):
        cfg = small_config()
        st = TimeStepper(cfg)
        s1, _ = st.step(build_initial_state(cfg, st.bundle), cfg.dt)
        s1.phi[0, 0, 0] += 1e-3
        e1, _, _ = free_energy(s1, st.bundle)
        calls = counting(monkeypatch, mchb.diagnostics, "free_energy")
        _, rep2 = st.step(s1, cfg.dt)
        assert len(calls) == 2
        assert rep2.energy_before == e1

    @pytest.mark.parametrize("preset", ["stratified-tumor", "darcy-limit",
                                        "zero-source"])
    def test_explicit_terms_evaluated_once_per_step(self, monkeypatch, preset):
        # the flow, the phase and nutrient updates and the energy identity
        # share one evaluation of each explicit term
        cfg = dataclasses.replace(build_default_scenario(preset),
                                  grid_nx=16, grid_ny=16)
        st = TimeStepper(cfg)
        s1, _ = st.step(build_initial_state(cfg, st.bundle), cfg.dt)
        targets = [(module, name) for module in (mchb.stepping, mchb.diagnostics)
                   for name in ("korteweg_force", "advective_divergence")]
        targets += [(cst, name) for name in ("chemical_energy", "mobility",
                                             "source_phase", "source_nutrient",
                                             "source_velocity")]
        calls = [counting(monkeypatch, owner, name) for owner, name in targets]
        st.step(s1, cfg.dt)
        counts = Counter(name for c in calls for name in c)
        assert counts.pop("chemical_energy") <= 3
        src = int(cfg.sources_enabled)
        assert counts == Counter(korteweg_force=1, advective_divergence=4,
                                 mobility=1, source_phase=src,
                                 source_nutrient=src, source_velocity=src)

    def test_constant_nutrient_mobility_assembled_once(self, monkeypatch):
        cfg = dataclasses.replace(build_default_scenario("stratified-tumor"),
                                  grid_nx=16, grid_ny=16)
        cached = TimeStepper(cfg)
        # a constant-one nutrient mobility function assembles every step
        ones = cst.MobilitySpec(d_func=lambda p, s: 1.0)
        fresh = TimeStepper(cfg, bundle_with(cfg, ones))
        s0 = build_initial_state(cfg, cached.bundle)
        assemblies = counting(monkeypatch, mchb.stepping, "fv_diffusion_matrix")
        a, _ = cached.step(s0, cfg.dt)
        assert assemblies == []
        b, _ = fresh.step(s0, cfg.dt)
        assert len(assemblies) == 2
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.phi, b.phi)


class TestVariableMobilityPath:
    def test_step_with_modulated_mobility(self):
        from mchb.parameters import build_specs
        cfg = small_config(flow_enabled=False)
        spec = cst.MobilitySpec(m_funcs=(
            lambda p, s: 1.0 + 0.5 * p[0]**2,
            lambda p, s: 1.0,
            lambda p, s: 1.0,
        ), d_func=lambda p, s: 1.0 + 0.1 * s[0]**2)
        bundle = build_specs(cfg.model, mobility=spec)
        st = TimeStepper(cfg, bundle)
        s0 = build_initial_state(cfg, bundle)
        e0, _, _ = free_energy(s0, bundle)
        s1, rep = st.step(s0, cfg.dt)
        assert rep.energy_after < e0  # decay survives variable mobilities


class TestScenarioBehaviors:
    def test_stratified_tumor_grows_when_proliferation_dominates(self):
        cfg = build_default_scenario("stratified-tumor")
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        m0, _, _ = component_masses(s)
        for _ in range(25):
            s, _ = st.step(s, cfg.dt)
        m1, _, _ = component_masses(s)
        assert m1.sum() > m0.sum()

    def test_interfacial_variant_steps(self):
        cfg = dataclasses.replace(build_default_scenario("stratified-tumor"),
                                  grid_nx=16, grid_ny=16,
                                  source_variant="interfacial")
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        for _ in range(3):
            s, rep = st.step(s, cfg.dt)
        s.check_finite()
        assert rep.picard_iters <= cfg.max_nonlinear_iter
