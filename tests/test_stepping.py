"""Time stepper: fixed points, splitting order, conservation, run control."""

import dataclasses
import importlib.util
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_array_equal
from scipy.optimize import newton_krylov

import mchb.constitutive as cst
import mchb.diagnostics
import mchb.flow
import mchb.grid
import mchb.stepping
from mchb.grid import (DENSE_BASIS_MAX, NEUMANN, Grid, Robin, eigenbasis,
                       fv_diffusion_matrix)
from mchb.diagnostics import component_masses, free_energy
from mchb.parameters import PRESETS, build_default_scenario, default_parameters
from mchb.state import StateFields, build_initial_state, smooth_random_field
from mchb.stepping import (StepFailure, TimeStepper, explicit_terms,
                           extrapolate, transport_terms)

# the random large-step set is defined once, in the agreement script
_AGREE = Path(__file__).resolve().parents[1] / "tools" / "agree.py"
_SPEC = importlib.util.spec_from_file_location("agree", _AGREE)
agree = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(agree)


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call."""
    calls = []
    orig = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def small_config(**over):
    cfg = build_default_scenario("zero-source")
    defaults = dict(grid_nx=16, grid_ny=16, init_modes=2)
    defaults.update(over)
    return dataclasses.replace(cfg, **defaults)


def phase_inputs(stepper, state, dt, v):
    """Right side and explicit chemical-potential part of the phase solve
    of a step from ``state`` in the velocity ``v`` (ignored, flow off)."""
    cfg = stepper.config
    m = cfg.model
    terms = explicit_terms(state, stepper.bundle, cfg.sources_enabled,
                           cfg.flow_enabled)
    conv_phi = transport_terms(state, v, terms.s_v)[0] if cfg.flow_enabled \
        else 0.0
    rhs0 = state.phi - dt * conv_phi + dt * terms.s_phi
    const_mu = m.gamma / m.epsilon * cst.concave_gradient(
        state.phi, stepper.bundle.potential) + terms.n_phi
    return rhs0, const_mu


def phase_residual(stepper, x, rhs0, const_mu, dt):
    """``(R(x), mu(x))`` of one component, built with the sparse Laplacian."""
    m = stepper.config.model
    A = stepper._neu_laplacian
    x = x.ravel()
    mu = m.gamma * m.epsilon * (A @ x) + m.gamma / m.epsilon \
        * cst.convex_gradient(x, stepper.bundle.potential) + const_mu.ravel()
    return x + dt * (A @ mu) - rhs0.ravel(), mu


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
        chi = bundle.chem.chi_sigma
        k = bundle.params.K
        bc = Robin(k=k, target=bundle.params.sigma_Gamma,
                   diffusivity=chi) if k > 0 else NEUMANN
        self.a_rob, self.rhs_rob = fv_diffusion_matrix(g, bc, chi)

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
                + dt * (self.a_rob @ sig[0] - self.rhs_rob - self.a_neu @ bphi) \
                + dt * s_sig[0]
            return out

        x0 = np.concatenate([phin.ravel(), sign.ravel()])
        x = newton_krylov(residual, x0, f_tol=1e-13, maxiter=200)
        return dataclasses.replace(
            state, phi=x[:3 * n].reshape(3, g.ny, g.nx), mu=state.mu.copy(),
            sigma=x[3 * n:].reshape(1, g.ny, g.nx), v=state.v.copy(),
            p=state.p.copy(), t=state.t + dt)


class ChordReference(TimeStepper):
    """The phase solve as a chord iteration on the frozen Jacobian.

    Each component factorizes the Jacobian of its residual at the step's
    starting state once (sparse LU) and reuses it until the residual meets
    the stepper's stopping test, read from the same module constants.  It
    starts from phi^n and ignores ``start``.
    """

    def _ch_solve(self, phi_n, rhs0, const_mu_part, dt, start):
        m = self.config.model
        pot = self.bundle.potential
        ge, gi = m.gamma * m.epsilon, m.gamma / m.epsilon
        A = self._neu_laplacian
        eye = sp.identity(self.grid.ncells, format="csr")
        phi_new, mu_new = np.empty_like(phi_n), np.empty_like(phi_n)
        a_phi = np.empty_like(phi_n)
        iters, res_max = 0, 0.0
        for i in range(phi_n.shape[0]):
            hess = cst.convex_part_diag_hessian(phi_n[i], pot).ravel()
            jac = eye + dt * ge * (A @ A) + dt * gi * (A @ sp.diags(hess))
            solve = spla.splu(jac.tocsc()).solve
            x = phi_n[i].ravel().copy()
            for it in range(mchb.stepping.MAX_PHASE_UPDATES + 1):
                mu = ge * (A @ x) + gi * cst.convex_gradient(x, pot) \
                    + const_mu_part[i].ravel()
                res = x + dt * (A @ mu) - rhs0[i].ravel()
                res_norm = float(np.abs(res).max())
                if res_norm <= mchb.stepping.PHASE_TOL * (1.0 + np.abs(x).max()):
                    break
                x = x - solve(res)
            else:
                raise AssertionError("chord reference did not converge")
            iters, res_max = max(iters, it), max(res_max, res_norm)
            phi_new[i] = x.reshape(self.grid.shape)
            mu_new[i] = mu.reshape(self.grid.shape)
            a_phi[i] = (A @ x).reshape(self.grid.shape)
        return phi_new, mu_new, iters, res_max, a_phi


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

    def test_transform_branch_keeps_mass_and_energy(self, monkeypatch):
        # above DENSE_BASIS_MAX cells an axis the phase sweep runs on the DCT
        n = DENSE_BASIS_MAX + 8
        transforms = counting(monkeypatch, mchb.grid, "dctn")
        cfg = small_config(flow_enabled=False, grid_nx=n, grid_ny=n)
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        m0, _, _ = component_masses(s)
        e_prev, _, _ = free_energy(s, st.bundle)
        for _ in range(3):
            s, rep = st.step(s, cfg.dt)
            assert rep.energy_after < e_prev
            e_prev = rep.energy_after
        m, _, _ = component_masses(s)
        assert np.abs(m - m0).max() <= 1e-9 * st.grid.area
        assert transforms


class TestPhaseTolerance:
    """What ``PHASE_TOL`` leaves in each accepted component."""

    @staticmethod
    def per_component(monkeypatch, check):
        """Solve each component on its own and pass it to ``check``, with
        the stepper, its inputs, its result and its number of updates."""
        solve = TimeStepper._ch_solve

        def split(self, phi_n, rhs0, const_mu, dt, start):
            parts = []
            for i in range(phi_n.shape[0]):
                c = np.s_[i:i + 1]
                parts.append(solve(self, phi_n[c], rhs0[c], const_mu[c], dt,
                                   None if start is None else start[c]))
                check(self, rhs0[i], const_mu[i], dt, parts[-1][0][0],
                      parts[-1][2])
            return (np.concatenate([p[0] for p in parts]),
                    np.concatenate([p[1] for p in parts]),
                    max(p[2] for p in parts), max(p[3] for p in parts),
                    np.concatenate([p[4] for p in parts]))

        monkeypatch.setattr(TimeStepper, "_ch_solve", split)

    def test_residual_work_is_small_against_the_dissipation(self, monkeypatch):
        # with residual R the convex split's energy inequality gains
        # <mu, R> against the dissipation dt <mu, A mu>
        ratios = []

        def margin(st, rhs0, const_mu, dt, phi, updates):
            res, mu = phase_residual(st, phi, rhs0, const_mu, dt)
            ratios.append(abs(mu @ res) / (dt * (mu @ (st._neu_laplacian @ mu))))

        self.per_component(monkeypatch, margin)
        base = build_default_scenario("zero-source")
        runs = [(dataclasses.replace(base, flow_enabled=flow), 200)
                for flow in (True, False)]
        runs.append((build_default_scenario("stratified-tumor"), 100))
        # criterion 7's (h, dt) ladder
        ladder = dataclasses.replace(base, model=default_parameters(),
                                     sources_enabled=True, flow_enabled=False,
                                     init_modes=2)
        runs += [(dataclasses.replace(ladder, grid_nx=n, grid_ny=n,
                                      dt=base.dt / 2**k), 32 * 2**k)
                 for k, n in enumerate((16, 32, 64))]
        for cfg, steps in runs:
            st = TimeStepper(cfg)
            s = build_initial_state(cfg, st.bundle)
            for _ in range(steps):
                s, _ = st.step(s, cfg.dt)
        assert len(ratios) == 3 * (400 + 100 + 224)
        assert max(ratios) <= 1e-3

    def test_each_step_keeps_the_mass_balance(self, monkeypatch):
        # the mean mode is set exactly before the first sweep, so even a
        # component accepted from its start with 0 updates has the mass of
        # the step's right side
        defects, zero_updates = [], []

        def balance(st, rhs0, const_mu, dt, phi, updates):
            defects.append(abs((phi - rhs0).sum()) * st.grid.cell_area
                           / st.grid.area)
            zero_updates.append(updates == 0)

        self.per_component(monkeypatch, balance)
        cfg = dataclasses.replace(build_default_scenario("stratified-tumor"),
                                  grid_nx=32, grid_ny=32)
        assert cfg.sources_enabled and cfg.flow_enabled
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        for _ in range(60):
            s, _ = st.step(s, cfg.dt)
        assert len(defects) == 180 and any(zero_updates)
        assert max(defects) <= 1e-14


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

    @pytest.mark.parametrize("every, steps", [(2, [0, 2, 4]),
                                              (3, [0, 3, 4]),
                                              (0, [0, 4])])
    def test_each_step_is_dumped_once(self, every, steps):
        # the final state is dumped unless the periodic dump just wrote it
        cfg = small_config(snapshot_every=every)
        cfg = dataclasses.replace(cfg, t_end=4 * cfg.dt)
        calls = []

        class Writer:
            def snapshot(self, state, step):
                calls.append(step)

            def write_row(self, row):
                pass

        summary = TimeStepper(cfg).run(Writer())
        assert len(summary.reports) == 4 and not summary.aborted
        assert calls == steps

    def test_dt_halving_then_abort(self, monkeypatch):
        # an unresolvable step: one nonlinear iteration allowed, huge dt
        monkeypatch.setattr(mchb.stepping, "MAX_PHASE_UPDATES", 1)
        cfg = small_config(sources_enabled=True, flow_enabled=False,
                           dt=1.0, t_end=2.0)
        summary = TimeStepper(cfg).run()
        assert summary.aborted
        assert "halv" in summary.message
        assert summary.dt_final < 1.0

    def test_last_allowed_update_is_checked(self, monkeypatch):
        # a step that needs exactly MAX_PHASE_UPDATES updates converges
        cfg = small_config(t_end=small_config().dt)
        default = TimeStepper(cfg).run()
        n = default.reports[0].picard_iters
        assert n >= 1
        monkeypatch.setattr(mchb.stepping, "MAX_PHASE_UPDATES", n)
        tight = TimeStepper(cfg).run()
        assert not tight.aborted
        assert tight.reports == default.reports
        for name in ("phi", "mu", "sigma", "v", "p"):
            assert np.array_equal(getattr(tight.state, name),
                                  getattr(default.state, name))

    def test_overflow_in_phase_solve_is_retried(self, monkeypatch):
        # a phase field of order 1e104 overflows the cubic convex gradient;
        # the guard ends the step as a FloatingPointError, not a warning,
        # and the run loop retries it at half the step
        cfg = small_config(flow_enabled=False, sources_enabled=False,
                           t_end=2 * small_config().dt)
        st = TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        with pytest.raises(FloatingPointError):
            st.step(dataclasses.replace(s0, phi=1e104 * s0.phi), cfg.dt)
        solve = TimeStepper._ch_solve
        scales = iter([1e104])  # only the first solve starts from it

        def first_overflows(self, phi_n, *args):
            return solve(self, next(scales, 1.0) * phi_n, *args)

        monkeypatch.setattr(TimeStepper, "_ch_solve", first_overflows)
        summary = TimeStepper(cfg).run()
        assert not summary.aborted and summary.dt_final == 0.5 * cfg.dt
        assert summary.state.t == pytest.approx(cfg.t_end)
        energies = [summary.e_initial] + [r.energy_after
                                         for r in summary.reports]
        assert np.all(np.diff(energies) <= 0.0)

    @pytest.mark.parametrize("n, factor, sources", [(16, 89, True),
                                                    (8, 411, False)])
    def test_stalling_sweep_switches_to_newton(self, n, factor, sources):
        # from the stratified field the sweep alone stalls at these steps
        # and at 5 halvings of them; the Newton steps finish at full size
        cfg = build_default_scenario("zero-source")
        dt = factor * cfg.dt
        cfg = dataclasses.replace(cfg, grid_nx=n, grid_ny=n, flow_enabled=False,
                                  sources_enabled=sources,
                                  initial_condition="stratified",
                                  dt=dt, t_end=3 * dt)
        summary = TimeStepper(cfg).run()
        assert not summary.aborted and summary.dt_final == dt
        assert summary.state.t == pytest.approx(cfg.t_end)
        summary.state.check_finite()
        energies = [summary.e_initial] + [r.energy_after
                                         for r in summary.reports]
        assert sources or np.all(np.diff(energies) < 0.0)

    def test_run_summary_energies(self):
        cfg = small_config(t_end=3 * small_config().dt)
        summary = TimeStepper(cfg).run()
        assert len(summary.reports) == 3
        energies = [r.energy_after for r in summary.reports]
        assert np.all(np.isfinite(energies))
        assert summary.e_initial >= energies[-1]

    def test_step_rejects_bad_dt(self):
        cfg = small_config()
        st = TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        with pytest.raises(ValueError):
            st.step(s0, 0.0)


class TestTransformPhaseSolve:
    @pytest.mark.parametrize("preset", ["zero-source", "stratified-tumor"])
    def test_matches_factorized_path(self, preset, monkeypatch):
        # both paths solve to 1e-12, so they agree to 1e-10
        monkeypatch.setattr(mchb.stepping, "PHASE_TOL", 1e-12)
        cfg = dataclasses.replace(build_default_scenario(preset),
                                  grid_nx=32, grid_ny=32)
        fast, ref = TimeStepper(cfg), ChordReference(cfg)
        a = b = build_initial_state(cfg, fast.bundle)
        factorizations = counting(monkeypatch, spla, "splu")
        for k in range(10):
            # the stepper factorizes nothing; the reference 3 per step
            a, rep_a = fast.step(a, cfg.dt)
            assert len(factorizations) == 3 * k
            b, rep_b = ref.step(b, cfg.dt)
            assert np.abs(a.phi - b.phi).max() <= 1e-10
            assert rep_a.energy_after == pytest.approx(rep_b.energy_after,
                                                       rel=1e-10, abs=0.0)
        assert len(factorizations) == 30

    def test_newton_steps_match_factorized_path(self, monkeypatch):
        # at 64 dt0 on 64^2 a sweep shrinks the residual by less than half,
        # so the solve switches to P-preconditioned GMRES Newton steps
        monkeypatch.setattr(mchb.stepping, "PHASE_TOL", 1e-12)
        cfg = build_default_scenario("stratified-tumor")
        cfg = dataclasses.replace(cfg, dt=64 * cfg.dt)
        st = TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        newton_solves = counting(monkeypatch, spla, "gmres")
        a, rep_a = st.step(s0, cfg.dt)
        assert newton_solves
        b, rep_b = ChordReference(cfg).step(s0, cfg.dt)
        assert np.abs(a.phi - b.phi).max() <= 1e-10
        assert rep_a.energy_after == pytest.approx(rep_b.energy_after,
                                                   rel=1e-10, abs=0.0)

    def test_large_step_run_recovers_without_factorizing(self, monkeypatch):
        # at 64 dt0 the sweep nears rho = 1; the Newton steps finish every
        # step at full size without a factorization
        cfg = build_default_scenario("stratified-tumor")
        dt = 64 * cfg.dt
        cfg = dataclasses.replace(cfg, dt=dt, t_end=2 * dt)
        factorizations = counting(monkeypatch, spla, "splu")
        summary = TimeStepper(cfg).run()
        assert not summary.aborted and summary.dt_final == dt
        assert summary.state.t == pytest.approx(cfg.t_end)
        assert factorizations == []
        summary.state.check_finite()
        energies = [summary.e_initial] + [r.energy_after
                                         for r in summary.reports]
        assert np.all(np.diff(energies) < 0.0)

    @pytest.mark.parametrize("preset", ["zero-source", "stratified-tumor"])
    def test_stopping_test_holds_in_physical_space(self, preset):
        # the sweep works on cosine coefficients; rebuilt here with the
        # sparse Laplacian, every converged component meets the max-norm
        # test, mu is the chemical potential of the new phi, and the report
        # carries the max-norm residual
        self.check_stopping_test(preset, cst.PotentialSpec())

    @pytest.mark.parametrize("preset", ["zero-source", "stratified-tumor"])
    def test_stopping_test_holds_under_a_wider_split(self, preset):
        # the split's linear part s0 x goes through the transform with the
        # rest of psi1'; of the symbols only P's mid-range c sees the shift
        self.check_stopping_test(preset, cst.PotentialSpec(split_shift=2.5))

    @staticmethod
    def check_stopping_test(preset, potential):
        rounding = 1e-14
        cfg = dataclasses.replace(build_default_scenario(preset),
                                  grid_nx=32, grid_ny=32)
        st = TimeStepper(cfg)
        st.bundle = dataclasses.replace(st.bundle, potential=potential)
        s = build_initial_state(cfg, st.bundle)
        for _ in range(10):
            new, rep = st.step(s, cfg.dt)
            rhs0, const_mu = phase_inputs(st, s, cfg.dt, new.v)
            worst = 0.0
            for i in range(3):
                res, mu = phase_residual(st, new.phi[i], rhs0[i], const_mu[i],
                                         cfg.dt)
                res_norm = np.abs(res).max()
                assert res_norm <= mchb.stepping.PHASE_TOL \
                    * (1.0 + np.abs(new.phi[i]).max()) + rounding
                assert np.abs(new.mu[i].ravel() - mu).max() \
                    <= 1e-12 * np.abs(mu).max()
                worst = max(worst, res_norm)
            assert rep.picard_residual == pytest.approx(worst, rel=0.0,
                                                        abs=rounding)
            s = new

    def test_each_update_costs_two_basis_changes(self, monkeypatch):
        # a component with k sweeps changes basis 2k times and takes 2(k + 1)
        # products with A, one pair per evaluation; the nutrient flux takes
        # one more product a step
        cfg = small_config(flow_enabled=False, grid_nx=32, grid_ny=32)
        st = TimeStepper(cfg)
        counts, lap = Counter(), st._neu_laplacian

        def counted(f):
            def wrapper(*args, **kwargs):
                counts["basis"] += 1
                return f(*args, **kwargs)
            return wrapper

        class Product:
            def __matmul__(self, v):
                counts["product"] += 1
                return lap @ v

        basis = st._neu_basis
        st._neu_basis = basis._replace(forward=counted(basis.forward),
                                       inverse=counted(basis.inverse))
        st._neu_laplacian = Product()
        updates = []
        TestPhaseTolerance.per_component(
            monkeypatch, lambda *args: updates.append(args[-1]))
        newton_solves = counting(monkeypatch, spla, "gmres")
        s = build_initial_state(cfg, st.bundle)
        for _ in range(6):
            counts.clear()
            updates.clear()
            s, _ = st.step(s, cfg.dt)
            k = sum(updates)
            assert len(updates) == 3 and k > 0
            assert counts == Counter(basis=2 * k, product=2 * (k + 3) + 1)
        assert newton_solves == []

    def test_stalled_solve_reports_the_max_norm_residual(self, monkeypatch):
        # one update at 10 dt0 does not reach PHASE_TOL; the failure reports
        # the max norm of the last iterate's residual, not the RMS that
        # gates the max-norm test
        monkeypatch.setattr(mchb.stepping, "MAX_PHASE_UPDATES", 1)
        base = small_config(flow_enabled=False, sources_enabled=False)
        cfg = dataclasses.replace(base, dt=10 * base.dt)
        st = TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        iterates = []
        gradient = cst.double_well_gradient

        def recording(p):
            iterates.append(np.array(p, copy=True))
            return gradient(p)

        monkeypatch.setattr(cst, "double_well_gradient", recording)
        with pytest.raises(StepFailure, match="component 0") as failure:
            st.step(s0, cfg.dt)
        monkeypatch.undo()
        reported = float(re.search(r"residual (\S+)", str(failure.value))[1])
        rhs0, const_mu = phase_inputs(st, s0, cfg.dt, None)
        res, _ = phase_residual(st, iterates[-1], rhs0[0], const_mu[0], cfg.dt)
        max_norm = np.abs(res).max()
        assert reported == pytest.approx(max_norm, rel=1e-3)
        assert np.sqrt(np.mean(res**2)) < 0.5 * max_norm

    def test_default_split_sweep_contracts_at_every_step_size(self):
        # rho = max dt gamma/eps delta lambda / P(lambda) < 1 because the
        # convex-part Hessian is >= split_shift - 1 >= 0, so its mid-range c
        # over the value range of phi^n is at least its half-range delta
        cfg = build_default_scenario("stratified-tumor")
        m = cfg.model
        st = TimeStepper(cfg)
        basis = eigenbasis(st.grid, NEUMANN)
        lam = basis.lam_y[:, None] + basis.lam_x[None, :]
        fields = [build_initial_state(cfg, st.bundle).phi,
                  build_initial_state(dataclasses.replace(
                      cfg, initial_condition="random-smooth"), st.bundle).phi,
                  np.random.default_rng(5).uniform(-2.0, 3.0, (3, *st.grid.shape))]
        for phi in fields:
            for p in phi:
                h_min, h_max = cst.convex_hessian_range(p, st.bundle.potential)
                c, delta = 0.5 * (h_max + h_min), 0.5 * (h_max - h_min)
                assert h_min >= 0.0
                for dt in cfg.dt * np.logspace(0.0, 4.0, 9):
                    symbol = 1.0 + dt * lam * (m.gamma * m.epsilon * lam
                                               + m.gamma / m.epsilon * c)
                    rho = (dt * m.gamma / m.epsilon * delta * lam / symbol).max()
                    assert rho < 1.0


class TestStartGuess:
    """Each component starts from the extrapolation of the last states."""

    @staticmethod
    def recording_starts(monkeypatch):
        starts = []
        solve = TimeStepper._ch_solve

        def recording(self, phi_n, rhs0, const_mu, dt, start):
            starts.append(start)
            return solve(self, phi_n, rhs0, const_mu, dt, start)

        monkeypatch.setattr(TimeStepper, "_ch_solve", recording)
        return starts

    def test_runs_from_a_stepped_state_are_bit_equal(self):
        cfg = small_config(t_end=5 * small_config().dt)
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        for _ in range(2):
            s, _ = st.step(s, cfg.dt)
        # the run does not extrapolate from the steps taken before it
        runs = [st.run(state=s), st.run(state=s), TimeStepper(cfg).run(state=s)]
        assert len(runs[0].reports) == 3
        for other in runs[1:]:
            assert other.reports == runs[0].reports
            for name in ("phi", "mu", "sigma", "v", "p"):
                assert np.array_equal(getattr(other.state, name),
                                      getattr(runs[0].state, name))

    def test_history_moves_only_the_start(self, monkeypatch):
        # solved to 1e-12, the two starts end within 1e-10
        monkeypatch.setattr(mchb.stepping, "PHASE_TOL", 1e-12)
        cfg = small_config()
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        for _ in range(3):
            s, _ = st.step(s, cfg.dt)
        starts = self.recording_starts(monkeypatch)
        warm, rep_warm = st.step(s, cfg.dt)
        cold, rep_cold = TimeStepper(cfg).step(s, cfg.dt)
        assert starts[0] is not None and starts[1] is None
        assert np.abs(warm.phi - cold.phi).max() <= 1e-10
        assert rep_warm.picard_iters < rep_cold.picard_iters

    def test_state_at_another_time_starts_from_phi_n(self, monkeypatch):
        cfg = small_config()
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        for _ in range(2):
            s, _ = st.step(s, cfg.dt)
        # the phi the stepper returned last, at a time it did not return
        moved = dataclasses.replace(s, t=s.t + 7 * cfg.dt)
        starts = self.recording_starts(monkeypatch)
        a, rep_a = st.step(moved, cfg.dt)
        b, rep_b = TimeStepper(cfg).step(moved, cfg.dt)
        assert starts == [None, None]
        assert rep_a == rep_b
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.mu, b.mu)

    def test_retry_extrapolates_to_the_shorter_step(self, monkeypatch):
        cfg = small_config()
        dt = cfg.dt
        st = TimeStepper(cfg)
        states = [build_initial_state(cfg, st.bundle)]
        for _ in range(2):
            states.append(st.step(states[-1], dt)[0])
        history = [(s.t, s.phi) for s in states]
        solve = TimeStepper._ch_solve

        def failing(self, *args):
            raise StepFailure("forced")

        monkeypatch.setattr(TimeStepper, "_ch_solve", failing)
        with pytest.raises(StepFailure):
            st.step(states[-1], dt)
        monkeypatch.setattr(TimeStepper, "_ch_solve", solve)
        starts = self.recording_starts(monkeypatch)
        st.step(states[-1], 0.5 * dt)
        t = states[-1].t
        assert np.array_equal(starts[0], extrapolate(history, t + 0.5 * dt))
        assert not np.allclose(starts[0], extrapolate(history, t + dt),
                               rtol=0.0, atol=1e-12)

    def test_start_extrapolates_the_last_four_states(self, monkeypatch):
        cfg = small_config()
        st = TimeStepper(cfg)
        states = [build_initial_state(cfg, st.bundle)]
        for _ in range(4):
            states.append(st.step(states[-1], cfg.dt)[0])
        starts = self.recording_starts(monkeypatch)
        st.step(states[-1], cfg.dt)
        history = [(s.t, s.phi) for s in states[-4:]]
        assert np.array_equal(starts[0],
                              extrapolate(history, states[-1].t + cfg.dt))

    def test_extrapolation_is_exact_on_cubics(self):
        rng = np.random.default_rng(4)
        a, b, c, d = rng.standard_normal((4, 4, 5))

        def f(t):
            return a + t * (b + t * (c + t * d))
        history = [(t, f(t)) for t in (0.3, 0.5, 0.55, 0.6)]
        assert np.allclose(extrapolate(history, 0.65), f(0.65),
                           rtol=0.0, atol=1e-12)

    def test_extrapolation_is_exact_on_quadratics(self):
        rng = np.random.default_rng(3)
        a, b, c = rng.standard_normal((3, 4, 5))
        times = [0.3, 0.55, 0.6]
        history = [(t, a + b * t + c * t * t) for t in times]
        t = 0.65
        assert np.allclose(extrapolate(history, t), a + b * t + c * t * t,
                           rtol=0.0, atol=1e-12)
        assert np.allclose(extrapolate(history[1:], t),
                           history[2][1] + (t - 0.6) / 0.05
                           * (history[2][1] - history[1][1]),
                           rtol=0.0, atol=1e-12)
        assert extrapolate(history[2:], t) is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg", list(agree.large_step_configs()),
                         ids=lambda cfg: f"{cfg.grid_nx}-{cfg.dt:.3g}")
def test_large_random_steps_finish_at_full_size(cfg):
    summary = TimeStepper(cfg).run()
    assert not summary.aborted, summary.message
    assert summary.dt_final == cfg.dt
    assert len(summary.reports) == 3
    summary.state.check_finite()


class TestStepWork:
    def test_energy_before_reused_from_energy_law(self, monkeypatch):
        cfg = small_config()
        st = TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        e0, _, _ = free_energy(s0, st.bundle)
        calls = counting(monkeypatch, mchb.diagnostics, "free_energy")
        _, rep = st.step(s0, cfg.dt)
        assert len(calls) == 2
        assert rep.energy.e_before == e0

    def test_energy_after_carried_to_next_step(self, monkeypatch):
        cfg = small_config()
        st = TimeStepper(cfg)
        s1, rep1 = st.step(build_initial_state(cfg, st.bundle), cfg.dt)
        calls = counting(monkeypatch, mchb.diagnostics, "free_energy")
        _, rep2 = st.step(s1, cfg.dt)
        assert len(calls) == 1
        assert rep2.energy.e_before == rep1.energy_after

    def test_state_mutated_in_place_recomputes_energy(self, monkeypatch):
        cfg = small_config()
        st = TimeStepper(cfg)
        s1, _ = st.step(build_initial_state(cfg, st.bundle), cfg.dt)
        s1.phi[0, 0, 0] += 1e-3
        e1, _, _ = free_energy(s1, st.bundle)
        calls = counting(monkeypatch, mchb.diagnostics, "free_energy")
        _, rep2 = st.step(s1, cfg.dt)
        assert len(calls) == 2
        assert rep2.energy.e_before == e1

    @pytest.mark.parametrize("preset", ["stratified-tumor", "darcy-limit",
                                        "zero-source"])
    def test_explicit_terms_evaluated_once_per_step(self, monkeypatch, preset):
        # the flow, the phase and nutrient updates and the energy identity
        # share one evaluation of each explicit term, the new state's energy
        # and N_sigma share one more of N, which the next step reuses, the
        # force and the transport share one gradient of each field, and the
        # unit mobilities are not evaluated at all
        cfg = dataclasses.replace(build_default_scenario(preset),
                                  grid_nx=16, grid_ny=16)
        st = TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        targets = [(module, name) for module in (mchb.stepping, mchb.diagnostics)
                   for name in ("korteweg_force", "advective_divergence")]
        targets += [(module, "cell_gradient")
                    for module in (mchb.stepping, mchb.flow, mchb.grid)]
        targets += [(cst, name) for name in ("chemical_energy", "mobility",
                                             "source_phase", "source_nutrient",
                                             "source_velocity",
                                             "saturating_proliferation")]
        calls = [counting(monkeypatch, owner, name) for owner, name in targets]
        s1, _ = st.step(s0, cfg.dt)
        # a state the stepper did not return has no carried energy or
        # chemistry: N is evaluated for the terms, E(before) and E(after)
        assert Counter(name for c in calls for name in c)[
            "chemical_energy"] == 3
        for c in calls:
            c.clear()
        st.step(s1, cfg.dt)
        counts = Counter(name for c in calls for name in c)
        assert counts.pop("chemical_energy") == 1
        # the volume source comes with the phase source, from the same
        # evaluation of the proliferation law
        src = int(cfg.sources_enabled)
        assert counts == Counter(korteweg_force=1, advective_divergence=4,
                                 cell_gradient=4,
                                 source_phase=src, source_nutrient=src,
                                 saturating_proliferation=src)

    @pytest.mark.parametrize("field", ["phi", "sigma"])
    def test_state_mutated_in_place_gets_fresh_chemistry(self, field):
        # N_phi depends on sigma and N_sigma on phi: a step from a returned
        # state changed in place matches, bit for bit, the step of a stepper
        # with the same kept states and no carried chemistry
        cfg = small_config()
        assert cfg.flow_enabled
        st, fresh = TimeStepper(cfg), TimeStepper(cfg)
        s0 = build_initial_state(cfg, st.bundle)
        s1, _ = st.step(s0, cfg.dt)
        fresh.step(s0, cfg.dt)
        fresh._carry = (*fresh._carry[:3], None)
        getattr(s1, field)[0, 3, 5] += 1e-2
        got, rep = st.step(s1, cfg.dt)
        ref, ref_rep = fresh.step(s1, cfg.dt)
        for name in ("phi", "mu", "sigma", "v", "p"):
            assert_array_equal(getattr(got, name), getattr(ref, name))
        assert rep.energy == ref_rep.energy

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_energy_from_the_phase_solve_matches_the_differences(self, preset):
        # the step's E takes int |grad phi|^2 as cell_area <phi, A phi> with
        # the phase solve's A phi: summation by parts of the face differences
        cfg = dataclasses.replace(build_default_scenario(preset),
                                  grid_nx=16, grid_ny=16)
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        for _ in range(3):
            s, rep = st.step(s, cfg.dt)
            e, gl, chem = free_energy(s, st.bundle)
            assert rep.energy.chemical == chem
            assert rep.energy.ginzburg_landau == pytest.approx(gl, rel=1e-13)
            assert rep.energy_after == pytest.approx(e, rel=1e-13)

    def test_constant_nutrient_mobility_assembled_once(self, monkeypatch):
        cfg = dataclasses.replace(build_default_scenario("stratified-tumor"),
                                  grid_nx=16, grid_ny=16)
        # the operators and the eigenbases are built with the stepper, none
        # in a step, also after a change of dt
        calls = [counting(monkeypatch, mchb.stepping, name)
                 for name in ("fv_diffusion_matrix", "wall_terms", "eigenbasis")]
        calls.append(counting(monkeypatch, np.linalg, "eigh"))
        st = TimeStepper(cfg)
        # the Neumann Laplacian and the wall part of the nutrient matrix, the
        # phase and nutrient bases, the Robin nutrient axes
        assert [len(c) for c in calls] == [1, 1, 2, 2]
        for c in calls:
            c.clear()
        s = build_initial_state(cfg, st.bundle)
        for dt in (cfg.dt, cfg.dt, 0.5 * cfg.dt, 0.5 * cfg.dt):
            s, _ = st.step(s, dt)
        assert calls == [[], [], [], []]


class TestNutrientSolve:
    @pytest.mark.parametrize("nx, ny, lx, K", [
        pytest.param(16, 24, 1.7, 0.0, id="16-24-1.7"),
        pytest.param(64, 64, 1.0, 0.0, id="64-64-1.0"),
        pytest.param(16, 24, 1.7, 1.5, id="16-24-1.7-robin"),
        pytest.param(64, 64, 1.0, 1.5, id="64-64-1.0-robin")])
    def test_no_flux_transform_solve_matches_cg(self, nx, ny, lx, K):
        # the direct solve against CG on the assembled system, on both wall
        # closures; a non-unit chi_sigma, so its weight on N shows
        cfg = small_config(grid_nx=nx, grid_ny=ny, domain_lx=lx,
                           model=default_parameters(K=K, chi_sigma=2.5))
        st = TimeStepper(cfg)
        g, chem = st.grid, st.bundle.chem
        rng = np.random.default_rng(nx)
        sigma_n = rng.uniform(0.0, 1.0, (1, *g.shape))
        phi_new = rng.uniform(0.0, 0.3, (3, *g.shape))
        conv_sigma = rng.standard_normal(g.shape)
        s_sigma = rng.standard_normal((1, *g.shape))
        dt = 10.0 * cfg.dt
        got, count = st._nutrient_solve(sigma_n, phi_new, conv_sigma, s_sigma,
                                        dt)
        # I/dt + N with the wall source on the right, and the coupling part
        # of the flux, the Neumann Laplacian of B phi
        mat, wall = fv_diffusion_matrix(g, mchb.diagnostics.nutrient_bc(
            st.bundle), chem.chi_sigma)
        assert (np.abs(wall).max() > 0.0) == (K > 0.0)
        lap, _ = fv_diffusion_matrix(g, NEUMANN)
        system = sp.identity(g.ncells, format="csr") / dt + mat
        bphi = np.einsum("l,lxy->xy", chem.coupling[0], phi_new)
        rhs = (sigma_n[0] / dt - conv_sigma - s_sigma[0]).ravel() \
            + lap @ bphi.ravel() + wall
        ref, info = spla.cg(system, rhs, rtol=1e-14, atol=0.0,
                            maxiter=10 * g.ncells)
        assert info == 0 and count == 1
        assert got.shape == (1, ny, nx)
        assert np.abs(got.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("preset", ["zero-source", "stratified-tumor"])
    def test_cg_never_runs(self, monkeypatch, preset):
        cfg = dataclasses.replace(build_default_scenario(preset),
                                  grid_nx=16, grid_ny=16)
        st = TimeStepper(cfg)
        calls = counting(monkeypatch, spla, "cg")
        s, _ = st.step(build_initial_state(cfg, st.bundle), cfg.dt)
        st.step(s, cfg.dt)
        assert calls == []

    def test_uniform_state_stays_exact(self):
        # the increment form: a state at rest gives a zero right side, so
        # sigma stays bit-uniform and no flow is driven
        cfg = dataclasses.replace(build_default_scenario("mms"), grid_nx=32,
                                  grid_ny=32)
        cfg = dataclasses.replace(cfg, t_end=8 * cfg.dt)
        summary = TimeStepper(cfg).run()
        assert len(summary.reports) == 8 and not summary.aborted
        s = summary.state
        assert not s.v.any() and not s.p.any()
        assert np.unique(s.sigma).size == 1


@pytest.mark.parametrize("nx, ny, lx, ly", [(8, 8, 1.0, 1.0),
                                            (16, 37, 2.3, 0.7),
                                            (64, 64, 1.0, 1.0),
                                            (128, 128, 1.0, 1.0)])
class TestDiaLaplacian:
    """The stepper keeps the Neumann Laplacian in DIA storage: its offsets
    are the column order of the CSR rows, so the products are bit-equal."""

    @staticmethod
    def steppers(nx, ny, lx, ly, **over):
        cfg = small_config(grid_nx=nx, grid_ny=ny, domain_lx=lx, domain_ly=ly,
                           **over)
        st, ref = TimeStepper(cfg), TimeStepper(cfg)
        ref._neu_laplacian, _ = fv_diffusion_matrix(ref.grid, NEUMANN)
        assert ref._neu_laplacian.format == "csr"
        assert st._neu_laplacian.format == "dia"
        assert list(st._neu_laplacian.offsets) == [-nx, -1, 0, 1, nx]
        return st, ref

    def test_products_equal_the_csr_products(self, nx, ny, lx, ly):
        st, ref = self.steppers(nx, ny, lx, ly)
        rng = np.random.default_rng(nx * ny)
        smooth = full_grid_random_field(rng, st.grid, 5, 0.3)
        for v in [*rng.standard_normal((3, st.grid.ncells)), smooth.ravel()]:
            assert_array_equal(st._neu_laplacian @ v, ref._neu_laplacian @ v)

    def test_nutrient_flux_and_step_equal_the_csr_ones(self, nx, ny, lx, ly):
        # the Robin closure and a non-unit chi_sigma, so the wall part and
        # the weight of N show
        st, ref = self.steppers(nx, ny, lx, ly, sources_enabled=True,
                                model=default_parameters(K=1.5, chi_sigma=2.5))
        g = st.grid
        rng = np.random.default_rng(nx + ny)
        sigma_n = rng.uniform(0.0, 1.0, (1, *g.shape))
        phi_new = rng.uniform(0.0, 0.3, (3, *g.shape))
        conv_sigma = rng.standard_normal(g.shape)
        s_sigma = rng.standard_normal((1, *g.shape))
        got, ref_sigma = (s._nutrient_solve(sigma_n, phi_new, conv_sigma,
                                            s_sigma, st.config.dt)[0]
                          for s in (st, ref))
        assert_array_equal(got, ref_sigma)
        s0 = build_initial_state(st.config, st.bundle)
        (a, rep_a), (b, rep_b) = (s.step(s0, st.config.dt) for s in (st, ref))
        for name in ("phi", "mu", "sigma", "v", "p"):
            assert_array_equal(getattr(a, name), getattr(b, name))
        assert rep_a == rep_b


def full_grid_random_field(rng, grid, modes, amplitude):
    """``smooth_random_field`` with every mode evaluated on the full grid."""
    x, y = np.broadcast_arrays(*grid.cell_axes())
    coeff = rng.standard_normal((modes, modes))
    out = np.zeros(grid.shape)
    for i in range(modes):
        for j in range(modes):
            if i == 0 and j == 0:
                continue
            decay = np.exp(-0.35 * (i * i + j * j))
            out += coeff[i, j] * decay * np.cos(i * np.pi * x / grid.lx) \
                * np.cos(j * np.pi * y / grid.ly)
    out *= amplitude / np.abs(out).max()
    return out


@pytest.mark.parametrize("nx, ny, lx, ly", [(64, 64, 1.0, 1.0),
                                            (128, 128, 1.0, 1.0),
                                            (37, 16, 2.3, 0.7),
                                            (8, 200, 20.0, 20.0)])
def test_smooth_random_field_is_the_full_grid_synthesis(nx, ny, lx, ly):
    grid = Grid(nx, ny, lx, ly)
    for modes in (2, 5):
        got = smooth_random_field(np.random.default_rng(modes), grid, modes,
                                  0.02)
        ref = full_grid_random_field(np.random.default_rng(modes), grid,
                                     modes, 0.02)
        assert_array_equal(got, ref)


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
        assert rep.picard_iters <= mchb.stepping.MAX_PHASE_UPDATES
