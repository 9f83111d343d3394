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
import mchb.stepping
from mchb.grid import (NEUMANN, Grid, Robin, fv_diffusion_matrix,
                       laplacian_symbol)
from mchb.diagnostics import component_masses, free_energy
from mchb.parameters import (ConfigError, build_default_scenario,
                             default_parameters)
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
        * cst.potential_split(x, stepper.bundle.potential)[0] + const_mu.ravel()
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
        k = bundle.sources.k_boundary
        bc = Robin(k=k, target=bundle.sources.sigma_gamma,
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
        out = state.copy()
        out.phi = x[:3 * n].reshape(3, g.ny, g.nx)
        out.sigma = x[3 * n:].reshape(1, g.ny, g.nx)
        out.t = state.t + dt
        return out


class ChordReference(TimeStepper):
    """The phase solve as a chord iteration on the frozen Jacobian.

    Each component factorizes the Jacobian of its residual at the step's
    starting state once (sparse LU) and reuses it until the residual meets
    the stepper's stopping test.  It starts from phi^n and ignores ``start``.
    """

    def _ch_solve(self, phi_n, rhs0, const_mu_part, dt, start):
        m = self.config.model
        pot = self.bundle.potential
        ge, gi = m.gamma * m.epsilon, m.gamma / m.epsilon
        A = self._neu_laplacian
        eye = sp.identity(self.grid.ncells, format="csr")
        phi_new, mu_new = np.empty_like(phi_n), np.empty_like(phi_n)
        iters, res_max = 0, 0.0
        for i in range(phi_n.shape[0]):
            hess = cst.convex_part_diag_hessian(phi_n[i], pot).ravel()
            jac = eye + dt * ge * (A @ A) + dt * gi * (A @ sp.diags(hess))
            solve = spla.splu(jac.tocsc()).solve
            x = phi_n[i].ravel().copy()
            for it in range(self.config.max_nonlinear_iter + 1):
                mu = ge * (A @ x) + gi * cst.potential_split(x, pot)[0] \
                    + const_mu_part[i].ravel()
                res = x + dt * (A @ mu) - rhs0[i].ravel()
                res_norm = float(np.abs(res).max())
                if res_norm <= self.config.tol_ch * (1.0 + np.abs(x).max()):
                    break
                x = x - solve(res)
            else:
                raise AssertionError("chord reference did not converge")
            iters, res_max = max(iters, it), max(res_max, res_norm)
            phi_new[i] = x.reshape(self.grid.shape)
            mu_new[i] = mu.reshape(self.grid.shape)
        return phi_new, mu_new, iters, res_max


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

    def test_last_allowed_update_is_checked(self):
        # a step that needs exactly max_nonlinear_iter updates converges
        cfg = small_config(t_end=small_config().dt)
        default = TimeStepper(cfg).run()
        n = default.reports[0].picard_iters
        assert n >= 1
        tight = TimeStepper(dataclasses.replace(cfg, max_nonlinear_iter=n)).run()
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
        energies = np.concatenate([[summary.e_initial], summary.energies])
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
        energies = np.concatenate([[summary.e_initial], summary.energies])
        assert sources or np.all(np.diff(energies) < 0.0)

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
        energies = np.concatenate([[summary.e_initial], summary.energies])
        assert np.all(np.diff(energies) < 0.0)

    @pytest.mark.parametrize("preset", ["zero-source", "stratified-tumor"])
    def test_stopping_test_holds_in_physical_space(self, preset):
        # the sweep works on cosine coefficients; rebuilt here with the
        # sparse Laplacian, every converged component meets the max-norm
        # test, mu is the chemical potential of the new phi, and the report
        # carries the max-norm residual
        rounding = 1e-14
        cfg = dataclasses.replace(build_default_scenario(preset),
                                  grid_nx=32, grid_ny=32)
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        for _ in range(10):
            new, rep = st.step(s, cfg.dt)
            rhs0, const_mu = phase_inputs(st, s, cfg.dt, new.v)
            worst = 0.0
            for i in range(3):
                res, mu = phase_residual(st, new.phi[i], rhs0[i], const_mu[i],
                                         cfg.dt)
                res_norm = np.abs(res).max()
                assert res_norm <= cfg.tol_ch * (1.0 + np.abs(new.phi[i]).max()) \
                    + rounding
                assert np.abs(new.mu[i].ravel() - mu).max() \
                    <= 1e-12 * np.abs(mu).max()
                worst = max(worst, res_norm)
            assert rep.picard_residual == pytest.approx(worst, rel=0.0,
                                                        abs=rounding)
            s = new

    def test_stalled_solve_reports_the_max_norm_residual(self, monkeypatch):
        # one update at 10 dt0 does not reach tol_ch; the failure reports
        # the max norm of the last iterate's residual, not the RMS that
        # gates the max-norm test
        base = small_config(flow_enabled=False, sources_enabled=False)
        cfg = dataclasses.replace(base, dt=10 * base.dt, max_nonlinear_iter=1)
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
        # is at least its half-range delta
        cfg = build_default_scenario("stratified-tumor")
        m = cfg.model
        st = TimeStepper(cfg)
        lam = laplacian_symbol(st.grid, NEUMANN)
        fields = [build_initial_state(cfg, st.bundle).phi,
                  build_initial_state(dataclasses.replace(
                      cfg, initial_condition="random-smooth"), st.bundle).phi,
                  np.random.default_rng(5).uniform(-2.0, 3.0, (3, *st.grid.shape))]
        for phi in fields:
            for p in phi:
                h = cst.convex_part_diag_hessian(p, st.bundle.potential)
                c, delta = 0.5 * (h.max() + h.min()), 0.5 * (h.max() - h.min())
                assert h.min() >= 0.0
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
        # share one evaluation of each explicit term, the new state's energy
        # and N_sigma share one more of N, and the unit mobilities are not
        # evaluated at all
        cfg = dataclasses.replace(build_default_scenario(preset),
                                  grid_nx=16, grid_ny=16)
        st = TimeStepper(cfg)
        s1, _ = st.step(build_initial_state(cfg, st.bundle), cfg.dt)
        targets = [(module, name) for module in (mchb.stepping, mchb.diagnostics)
                   for name in ("korteweg_force", "advective_divergence")]
        targets += [(cst, name) for name in ("chemical_energy", "mobility",
                                             "source_phase", "source_nutrient",
                                             "source_healthy",
                                             "source_velocity",
                                             "saturating_proliferation")]
        calls = [counting(monkeypatch, owner, name) for owner, name in targets]
        st.step(s1, cfg.dt)
        counts = Counter(name for c in calls for name in c)
        assert counts.pop("chemical_energy") == 2
        # the volume source comes with the phase source, from the same
        # evaluation of the proliferation law
        src = int(cfg.sources_enabled)
        assert counts == Counter(korteweg_force=1, advective_divergence=4,
                                 source_phase=src, source_nutrient=src,
                                 saturating_proliferation=src)

    def test_constant_nutrient_mobility_assembled_once(self, monkeypatch):
        cfg = dataclasses.replace(build_default_scenario("stratified-tumor"),
                                  grid_nx=16, grid_ny=16)
        # the operators are built with the stepper, none in a step; the
        # nutrient system I/dt + N is built again only when dt changes
        st = TimeStepper(cfg)
        s = build_initial_state(cfg, st.bundle)
        assemblies = counting(monkeypatch, mchb.stepping, "fv_diffusion_matrix")
        systems = []  # kept alive, so distinct matrices have distinct ids
        cg = spla.cg

        def recording_cg(mat, *args, **kwargs):
            systems.append(mat)
            return cg(mat, *args, **kwargs)

        monkeypatch.setattr(spla, "cg", recording_cg)
        for dt in (cfg.dt, cfg.dt, cfg.dt, 0.5 * cfg.dt, 0.5 * cfg.dt):
            s, _ = st.step(s, dt)
        assert assemblies == []
        ids = [id(mat) for mat in systems]
        assert [ids.index(key) for key in ids] == [0, 0, 0, 3, 3]


class TestNutrientSolve:
    @pytest.mark.parametrize("nx, ny, lx", [(16, 24, 1.7), (64, 64, 1.0)])
    def test_no_flux_transform_solve_matches_cg(self, nx, ny, lx):
        # a non-unit chi_sigma, so the symbol's weight shows
        cfg = small_config(grid_nx=nx, grid_ny=ny, domain_lx=lx,
                           model=default_parameters(K=0.0, chi_sigma=2.5))
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
        # the system the CG solved: I/dt + chi A, with the coupling part of
        # the flux on the right side
        lap, _ = fv_diffusion_matrix(g, NEUMANN)
        system = sp.identity(g.ncells, format="csr") / dt + chem.chi_sigma * lap
        bphi = np.einsum("l,lxy->xy", chem.coupling[0], phi_new)
        rhs = (sigma_n[0] / dt - conv_sigma - s_sigma[0]).ravel() \
            + lap @ bphi.ravel()
        ref, info = spla.cg(system, rhs, rtol=1e-14, atol=0.0,
                            maxiter=10 * g.ncells)
        assert info == 0 and count == 1
        assert got.shape == (1, ny, nx)
        assert np.abs(got.ravel() - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("preset, cg_calls", [("zero-source", 0),
                                                  ("stratified-tumor", 1)])
    def test_cg_runs_only_under_the_robin_closure(self, monkeypatch, preset,
                                                  cg_calls):
        cfg = dataclasses.replace(build_default_scenario(preset),
                                  grid_nx=16, grid_ny=16)
        st = TimeStepper(cfg)
        calls = counting(monkeypatch, spla, "cg")
        _, rep = st.step(build_initial_state(cfg, st.bundle), cfg.dt)
        assert len(calls) == cg_calls
        if cg_calls == 0:
            assert rep.nutrient_iters == 1


def full_grid_random_field(rng, grid, modes, amplitude):
    """``smooth_random_field`` with every mode evaluated on the full grid."""
    x, y = grid.cell_centers()
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
        assert rep.picard_iters <= cfg.max_nonlinear_iter
