"""Semi-implicit convex-split time integration of the coupled system.

One step advances, in order: (i) constitutive evaluation at the current
state, (ii) the flow solve (Darcy or Brinkman) driven by the capillary and
chemical force with the volume source, (iii) the phase-field update with the
convex part of the potential implicit and the concave part, chemical
coupling, sources and transport explicit, and (iv) one SPD nutrient solve
with the updated phase field inside the flux and the Robin wall closure.

The phase update is solved per component by a preconditioned iteration
``x <- x - P^-1 R(x)`` on the implicit residual ``R``.  With a constant
phase mobility ``m``, ``P`` is the constant-coefficient stabilized operator
``I + dt m A (gamma eps A + gamma/eps c)`` of Eyre's convex split with the
Shen-Yang stabilization, where ``A`` is the Neumann Laplacian and ``c`` the
mid-range of the convex-part Hessian ``h`` at the step's starting state.
The cosine transform diagonalizes ``P``, so each sweep costs two transforms.
The sweep contracts the linearized error in L2 by at most
``rho = max dt m gamma/eps delta lambda / P(lambda)`` over the eigenvalues
``lambda`` of ``A``, ``delta`` being the half-range of ``h``; the sweep runs
when ``rho <= 1/2``.  Otherwise (a step size well above the interface
relaxation time, or a variable phase mobility, which no transform
diagonalizes) the Jacobian frozen at the starting state is factorized once
(sparse LU) and reused, which converges in a handful of sweeps because the
Hessian drifts only O(dt) within a step.  Plain fixed-point iteration on
the convex term is not a contraction at the default step size.

With sources off, the flow off, and zero boundary permeability the update
dissipates the discrete free energy unconditionally: the convex split, the
explicit evaluation of the (phi-independent) chemical derivative, and the
implicit nutrient flux built from the updated phase field make the cross
terms cancel exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dctn, idctn

from . import constitutive as cst
from . import diagnostics as diag
from .flow import BrinkmanOptions, FlowSolverError, UzawaSpace, \
    korteweg_force, solve_brinkman, solve_darcy
from .grid import (NEUMANN, Field, Grid, advective_divergence,
                   arithmetic_face_coefficients, fv_diffusion_matrix,
                   laplacian_symbol)
from .parameters import ScenarioConfig, SpecBundle, build_specs
from .state import StateFields, build_initial_state


class StepFailure(RuntimeError):
    """Non-convergence of one time step."""


# largest L2 contraction bound for which the phase solve runs the transform
# sweep instead of factorizing the frozen Jacobian
SWEEP_CONTRACTION_LIMIT = 0.5


@dataclass
class StepReport:
    dt: float
    flow_iterations: int
    picard_iters: int
    picard_residual: float
    nutrient_iters: int
    energy_before: float
    energy_after: float
    div_residual: float
    energy: diag.EnergyReport | None = None


@dataclass
class RunSummary:
    reports: list[StepReport]
    state: StateFields
    aborted: bool
    dt_final: float
    seed: int
    e_initial: float
    message: str = ""

    @property
    def energies(self) -> np.ndarray:
        return np.array([r.energy_after for r in self.reports])


@dataclass
class StepTerms:
    """A step's explicit terms at its starting state; see ``explicit_terms``."""
    n_phi: np.ndarray
    n_sigma: np.ndarray
    phase_m: np.ndarray
    nut_m: np.ndarray
    s_phi: np.ndarray
    s_sigma: np.ndarray
    s_v: np.ndarray
    force: np.ndarray | None


def explicit_terms(state: StateFields, bundle: SpecBundle,
                   sources_enabled: bool, flow_enabled: bool) -> StepTerms:
    """Chemical derivatives, mobilities, sources and Korteweg force of ``state``.

    Sources are zeros when sources are off and the force is None when the
    flow is off.  The step, its energy identity and the Darcy sweep's frozen
    snapshot all take their terms from here, so each is evaluated once.
    """
    p, s, mu = state.phi, state.sigma, state.mu
    _, n_phi, n_sigma, _ = cst.chemical_energy(p, s, bundle.chem)
    phase_m, nut_m = cst.mobility(p, s, bundle.mobility)
    if sources_enabled:
        sources = (cst.source_phase(p, s, mu, bundle.sources),
                   cst.source_nutrient(p, s, mu, bundle.sources),
                   cst.source_velocity(p, s, bundle.sources))
    else:
        sources = (np.zeros_like(p), np.zeros_like(s),
                   np.zeros(state.grid.shape))
    force = korteweg_force(p, mu, s, n_sigma, state.grid) if flow_enabled \
        else None
    return StepTerms(n_phi, n_sigma, phase_m, nut_m, *sources, force)


def transport_terms(state: StateFields, v: np.ndarray, s_v: np.ndarray):
    """Advective divergences ``(conv_phi, conv_sigma)`` of ``state`` in ``v``."""
    g = state.grid
    conv = [advective_divergence(Field(q, NEUMANN, g), v[0], v[1], s_v)
            for q in [*state.phi, state.sigma[0]]]
    return np.stack(conv[:-1]), conv[-1]


class TimeStepper:
    """Owns the grid-bound operators and advances states."""

    def __init__(self, config: ScenarioConfig, bundle: SpecBundle | None = None):
        config.validate()
        self.config = config
        self.grid = Grid(config.grid_nx, config.grid_ny,
                         config.domain_lx, config.domain_ly)
        self.bundle = bundle or build_specs(
            config.model, source_variant=config.source_variant,
            eta0=config.eta0, lambda0=config.lambda0)
        self._neu_laplacian, _ = fv_diffusion_matrix(self.grid, NEUMANN)
        self._neu_symbol = laplacian_symbol(self.grid, NEUMANN)
        self._identity = sp.identity(self.grid.ncells, format="csr")
        # a mobility with no m_funcs or no d_func is the constant
        # max(1, floor): the phase operator is then that multiple of the
        # Neumann Laplacian, and the nutrient operators are built once here
        mob = self.bundle.mobility
        phase_m, nut_m = cst.mobility(
            np.zeros((config.model.L,) + self.grid.shape),
            np.zeros((1,) + self.grid.shape), mob)
        self._phase_mobility = None
        if mob.m_funcs is None:
            self._phase_mobility = float(phase_m[0, 0, 0])
            self._phase_laplacian = self._phase_mobility * self._neu_laplacian
        self._nutrient_ops = None
        if mob.d_func is None:
            self._nutrient_ops = self._nutrient_operators(nut_m)
        self._brinkman_opts = BrinkmanOptions(tol=config.tol_flow)
        self._uzawa_space = UzawaSpace()
        # (phi, sigma, free energy) of the state the last step returned
        self._energy_carry: tuple | None = None

    # -- phase-field update -------------------------------------------------

    def _phase_matrix(self, mob_i: np.ndarray):
        if self._phase_mobility is not None:
            return self._phase_laplacian
        cx, cy = arithmetic_face_coefficients(mob_i, self.grid)
        mat, _ = fv_diffusion_matrix(self.grid, NEUMANN, cx, cy)
        return mat

    def _sweep_preconditioner(self, hess: np.ndarray, dt: float):
        """Transform solve with the stabilized operator, or None.

        Returns ``r -> P^-1 r`` when the phase mobility is constant and the
        contraction bound of the sweep is at most ``SWEEP_CONTRACTION_LIMIT``.
        """
        if self._phase_mobility is None:
            return None
        m = self.config.model
        gi = m.gamma / m.epsilon
        lam = self._neu_symbol
        dt_m = dt * self._phase_mobility
        h_hi, h_lo = float(hess.max()), float(hess.min())
        symbol = 1.0 + dt_m * lam * (m.gamma * m.epsilon * lam
                                     + gi * 0.5 * (h_hi + h_lo))
        rho = float((dt_m * gi * 0.5 * (h_hi - h_lo) * lam / symbol).max())
        if not rho <= SWEEP_CONTRACTION_LIMIT:
            return None
        shape = self.grid.shape

        def solve(r: np.ndarray) -> np.ndarray:
            coef = dctn(r.reshape(shape), type=2, norm="ortho")
            return idctn(coef / symbol, type=2, norm="ortho").ravel()
        return solve

    def _ch_solve(self, phi_n: np.ndarray, rhs0: np.ndarray,
                  const_mu_part: np.ndarray, phase_m: np.ndarray, dt: float):
        """Per-component implicit solve for (phi, mu) at the new time level."""
        m = self.config.model
        pot = self.bundle.potential
        ge = m.gamma * m.epsilon
        gi = m.gamma / m.epsilon
        tol = self.config.tol_ch
        max_iter = self.config.max_nonlinear_iter
        L = phi_n.shape[0]
        phi_new = np.empty_like(phi_n)
        mu_new = np.empty_like(phi_n)
        iters_used = 0
        res_max = 0.0
        for i in range(L):
            B = self._phase_matrix(phase_m[i])
            hess = cst.convex_part_diag_hessian(phi_n[i], pot)
            solve = self._sweep_preconditioner(hess, dt)
            if solve is None:
                jac = (self._identity
                       + dt * ge * (B @ self._neu_laplacian)
                       + dt * gi * (B @ sp.diags(hess.ravel()))).tocsc()
                solve = spla.splu(jac).solve
            x = phi_n[i].ravel().copy()
            r0 = rhs0[i].ravel()
            cmu = const_mu_part[i].ravel()
            converged = False
            for it in range(max_iter):
                grad1 = cst.potential_split(x, pot)[0]
                mu_flat = ge * (self._neu_laplacian @ x) + gi * grad1 + cmu
                res = x + dt * (B @ mu_flat) - r0
                res_norm = float(np.abs(res).max())
                if res_norm <= tol * (1.0 + float(np.abs(x).max())):
                    converged = True
                    iters_used = max(iters_used, it)
                    res_max = max(res_max, res_norm)
                    break
                x = x - solve(res)
            if not converged:
                raise StepFailure(
                    f"phase solve stalled at residual {res_norm:.3e} "
                    f"after {max_iter} iterations (component {i})")
            phi_new[i] = x.reshape(self.grid.shape)
            mu_new[i] = mu_flat.reshape(self.grid.shape)
        return phi_new, mu_new, iters_used, res_max

    # -- nutrient update ----------------------------------------------------

    def _nutrient_operators(self, nut_m: np.ndarray):
        """Nutrient diffusion matrix with its Robin rhs, and the coupling matrix."""
        chem = self.bundle.chem
        g = self.grid
        dx, dy = arithmetic_face_coefficients(nut_m, g)
        bc = diag.nutrient_bc(self.bundle, nut_m)
        a_chi, rhs_rob = fv_diffusion_matrix(g, bc, chem.chi_sigma * dx,
                                             chem.chi_sigma * dy)
        a_d, _ = fv_diffusion_matrix(g, NEUMANN, dx, dy)
        return a_chi, rhs_rob, a_d

    def _nutrient_solve(self, sigma_n, phi_new, conv_sigma, s_sigma, nut_m, dt):
        chem = self.bundle.chem
        g = self.grid
        a_chi, rhs_rob, a_d = (self._nutrient_ops
                               or self._nutrient_operators(nut_m))
        bphi = np.einsum("ml,lxy->mxy", chem.coupling, phi_new)[0]
        rhs = (sigma_n[0] / dt - conv_sigma - s_sigma[0]).ravel() \
            + rhs_rob + a_d @ bphi.ravel()
        mat = (self._identity / dt + a_chi).tocsr()
        iters = 0

        def cb(_):
            nonlocal iters
            iters += 1

        x, info = spla.cg(mat, rhs, x0=sigma_n[0].ravel(),
                          rtol=self.config.tol_nutrient, atol=0.0,
                          maxiter=10 * g.ncells, callback=cb)
        if info != 0:
            raise StepFailure(f"nutrient CG failed to converge (info={info})")
        return x.reshape(1, g.ny, g.nx), iters

    # -- one step -----------------------------------------------------------

    def step(self, state: StateFields, dt: float) -> tuple[StateFields, StepReport]:
        if dt <= 0:
            raise ValueError("dt must be positive")
        cfg = self.config
        m = cfg.model
        g = self.grid
        bundle = self.bundle
        terms = explicit_terms(state, bundle, cfg.sources_enabled,
                               cfg.flow_enabled)

        flow_iters, div_residual, transport = 0, 0.0, None
        if cfg.flow_enabled:
            if cfg.flow_backend == "darcy":
                flow = solve_darcy(terms.force, terms.s_v, m.nu, g,
                                   tol=cfg.tol_flow)
            else:
                visc = bundle.viscosity
                flow = solve_brinkman(terms.force, terms.s_v, visc.eta0,
                                      visc.lambda0, m.nu, g,
                                      self._brinkman_opts, p0=state.p,
                                      space=self._uzawa_space)
            v, p = flow.v, flow.p
            flow_iters, div_residual = flow.iterations, flow.div_residual
            transport = transport_terms(state, v, terms.s_v)
        else:
            v = np.zeros((2, g.ny, g.nx))
            p = np.zeros(g.shape)
        # no flow, no transport: subtracting 0.0 leaves the rest bit-equal
        conv_phi, conv_sigma = transport or (0.0, 0.0)

        # phase update: implicit convex part, everything else explicit
        rhs0 = state.phi - dt * conv_phi + dt * terms.s_phi
        const_mu = m.gamma / m.epsilon * cst.concave_gradient(
            state.phi, bundle.potential) + terms.n_phi
        phi_new, mu_new, picard_iters, picard_res = self._ch_solve(
            state.phi, rhs0, const_mu, terms.phase_m, dt)

        sigma_new, nutrient_iters = self._nutrient_solve(
            state.sigma, phi_new, conv_sigma, terms.s_sigma, terms.nut_m, dt)

        new_state = StateFields(phi=phi_new, mu=mu_new, sigma=sigma_new,
                                v=v, p=p, t=state.t + dt, grid=g)
        new_state.check_finite()

        carry = self._energy_carry
        e_before = None
        if (carry is not None and np.array_equal(carry[0], state.phi)
                and np.array_equal(carry[1], state.sigma)):
            e_before = carry[2]
        energy = diag.energy_law_residual(
            state, new_state, dt, bundle, terms, transport,
            flow_backend=cfg.flow_backend, sources_enabled=cfg.sources_enabled,
            e_before=e_before)
        self._energy_carry = (phi_new.copy(), sigma_new.copy(), energy.e_total)
        report = StepReport(dt=dt, flow_iterations=flow_iters,
                            picard_iters=picard_iters,
                            picard_residual=picard_res,
                            nutrient_iters=nutrient_iters,
                            energy_before=energy.e_before,
                            energy_after=energy.e_total,
                            div_residual=div_residual,
                            energy=energy)
        return new_state, report

    # -- run loop -----------------------------------------------------------

    def run(self, writer=None, state: StateFields | None = None) -> RunSummary:
        cfg = self.config
        state = state or build_initial_state(cfg, self.bundle)
        e0, _, _ = diag.free_energy(state, self.bundle)
        # each run starts from no kept directions, so equal runs are bit-equal
        self._uzawa_space.clear()
        self._energy_carry = (state.phi.copy(), state.sigma.copy(), e0)
        if writer is not None:
            writer.snapshot(state, step=0)
        reports: list[StepReport] = []
        dt = cfg.dt
        halvings = 0
        step_idx = 0
        t_end = cfg.t_end
        while state.t < t_end - 0.5 * dt:
            dt_step = min(dt, t_end - state.t)
            try:
                new_state, rep = self.step(state, dt_step)
            except (StepFailure, FlowSolverError, FloatingPointError) as exc:
                halvings += 1
                if halvings > 5:
                    return RunSummary(reports, state, aborted=True,
                                      dt_final=dt, seed=cfg.seed, e_initial=e0,
                                      message=f"aborted after 5 dt halvings: {exc}")
                dt *= 0.5
                continue
            state = new_state
            step_idx += 1
            reports.append(rep)
            if writer is not None:
                phi_m, sig_m, healthy = diag.component_masses(state)
                writer.write_row(diag.csv_row(rep.energy, rep.dt, phi_m, healthy,
                                              sig_m, rep.div_residual,
                                              rep.picard_iters))
                if cfg.snapshot_every > 0 and step_idx % cfg.snapshot_every == 0:
                    writer.snapshot(state, step=step_idx)
        if writer is not None and step_idx > 0:
            writer.snapshot(state, step=step_idx)
        return RunSummary(reports, state, aborted=False, dt_final=dt,
                          seed=cfg.seed, e_initial=e0)
