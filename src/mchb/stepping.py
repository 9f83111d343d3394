"""Semi-implicit convex-split time integration of the coupled system.

One step advances, in order: (i) constitutive evaluation at the current
state, (ii) the flow solve (Darcy or Brinkman) driven by the capillary and
chemical force with the volume source, (iii) the phase-field update with the
convex part of the potential implicit and the concave part, chemical
coupling, sources and transport explicit, and (iv) one implicit nutrient
solve of ``(I/dt + N) sigma = rhs`` with the updated phase field inside the
flux.  On a no-flux nutrient wall (``K = 0``) ``N`` is ``chi_sigma A`` with
``A`` the Neumann Laplacian, which the cosine transform diagonalizes: the
solve is one forward transform, a division by ``1/dt + chi_sigma lambda``
and one inverse transform.  No fast transform diagonalizes the Robin
closure, so under it the solve is CG on the assembled SPD system.

The phase and nutrient mobilities are the unit ones
(``constitutive.mobility``), so every diffusion operator is the plain
finite-volume Laplacian and is assembled once per stepper.

The phase update is solved per component on the implicit residual
``R(x) = x + dt A mu(x) - rhs``, ``mu(x) = gamma eps A x + gamma/eps
psi1'(x) + (explicit part)``, with the constant-coefficient stabilized
operator ``P = I + dt A (gamma eps A + gamma/eps c)`` of Eyre's convex split
with the Shen-Yang stabilization: ``A`` is the Neumann Laplacian and ``c``
the mid-range of the convex-part Hessian ``h`` at the step's starting
state.  The cosine transform diagonalizes ``A`` exactly, so the sweep
``x <- x - P^-1 R(x)`` runs on the coefficients ``x^ = DCT(x)``: with the
linear part ``s0 x`` of ``psi1'`` in the symbol ``lin = 1 + dt lambda
(gamma eps lambda + gamma/eps s0)``, ``R^ = lin x^ + dt gamma/eps lambda
DCT(psi_dw'(x)) + b^``, ``b^`` being formed once per component.  A sweep
is one forward transform of the double-well gradient, one inverse
transform of ``x^`` and pointwise work; ``mu`` is formed once, at the
converged ``x``.  The stopping test is ``max|R| <= tol_ch (1 + max|x|)`` in
physical space.  The RMS of ``R^`` equals that of ``R`` and never exceeds
``max|R|``, so it gates the test: only a residual whose RMS meets the bound
is transformed back for the exact max-norm check.  The sweep contracts the
linearized error in L2 by at most ``rho = max dt gamma/eps delta lambda /
P(lambda)`` over the eigenvalues ``lambda`` of ``A``, ``delta`` being the
half-range of ``h``; ``h = 12 p^2 - 12 p + 2 + s0 >= s0 - 1 >= 0`` gives
``c >= delta``, so ``rho < 1`` at every ``dt``.  Near ``rho = 1`` (a step
well above the interface relaxation time), once a sweep shrinks the RMS of
the residual by less than half against the sweep before, the update
switches to Newton steps in physical space, solved by GMRES preconditioned
with ``P``.  A component not converged after ``max_nonlinear_iter`` updates
is a ``StepFailure`` that reports its max-norm residual, and overflow or an
invalid value raises ``FloatingPointError``; the run loop retries either at
half the step.

Each component starts from the Lagrange extrapolation to the new time of
the last states the stepper returned, as ``(t, phi)``: none on a run's first
step, linear on its second, quadratic after.  Times, not step counts, set
the weights, so a retry at half the step extrapolates to its own end.  A
state the stepper did not return last (another ``phi`` or ``t``) starts
from ``phi^n``, and ``run`` forgets the history, so equal runs are
bit-equal.  The start moves only where the iteration begins.  Counting
the largest component of each step of 16-step runs at 64^2 and the default
``dt``, zero-source takes 93 sweeps (8, 7, 7, then 5-6 a step) where a
start from ``phi^n`` takes 117 (7-8 a step), and stratified-tumor 51 (3 a
step from the third) against 80 (5 a step); a 200-step flow-off zero-source
run takes 584 against 993.

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
from .grid import (NEUMANN, Field, Grid, Robin, advective_divergence,
                   fv_diffusion_matrix, laplacian_symbol)
from .parameters import ScenarioConfig, SpecBundle, build_specs
from .state import StateFields, build_initial_state


class StepFailure(RuntimeError):
    """Non-convergence of one time step."""


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
    s_phi: np.ndarray
    s_sigma: np.ndarray
    s_v: np.ndarray
    force: np.ndarray | None


def explicit_terms(state: StateFields, bundle: SpecBundle,
                   sources_enabled: bool, flow_enabled: bool) -> StepTerms:
    """Chemical derivatives, sources and Korteweg force of ``state``.

    Sources are zeros when sources are off and the force is None when the
    flow is off.  The step, its energy identity and the Darcy sweep's frozen
    snapshot all take their terms from here, so each is evaluated once.
    """
    p, s, mu = state.phi, state.sigma, state.mu
    _, n_phi, n_sigma, _ = cst.chemical_energy(p, s, bundle.chem)
    if sources_enabled:
        s_phi, s_v = cst.source_phase(p, s, mu, bundle.sources,
                                      with_velocity=True)
        sources = (s_phi, cst.source_nutrient(p, s, mu, bundle.sources), s_v)
    else:
        sources = (np.zeros_like(p), np.zeros_like(s),
                   np.zeros(state.grid.shape))
    force = korteweg_force(p, mu, s, n_sigma, state.grid) if flow_enabled \
        else None
    return StepTerms(n_phi, n_sigma, *sources, force)


def transport_terms(state: StateFields, v: np.ndarray, s_v: np.ndarray):
    """Advective divergences ``(conv_phi, conv_sigma)`` of ``state`` in ``v``."""
    g = state.grid
    conv = [advective_divergence(Field(q, NEUMANN, g), v[0], v[1], s_v)
            for q in [*state.phi, state.sigma[0]]]
    return np.stack(conv[:-1]), conv[-1]


def extrapolate(history, t: float) -> np.ndarray | None:
    """Lagrange extrapolation to ``t`` of the ``(t_k, phi_k)`` in ``history``.

    None for a single state; two states extrapolate linearly and three
    quadratically.
    """
    if len(history) < 2:
        return None
    out = 0.0
    for j, (tj, phi) in enumerate(history):
        w = 1.0
        for k, (tk, _) in enumerate(history):
            if k != j:
                w *= (t - tk) / (tj - tk)
        out = out + w * phi
    return out


class TimeStepper:
    """Owns the grid-bound operators and advances states."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        g = self.grid = Grid(config.grid_nx, config.grid_ny,
                             config.domain_lx, config.domain_ly)
        self.bundle = build_specs(config.model,
                                  source_variant=config.source_variant)
        self._neu_laplacian, _ = fv_diffusion_matrix(g, NEUMANN)
        self._neu_symbol = laplacian_symbol(g, NEUMANN)
        # nutrient flux chi_sigma grad(sigma) - B grad(phi); the coupling part
        # is the Neumann Laplacian.  Only the Robin wall needs the assembled
        # system: a no-flux wall is solved in the cosine basis
        nutrient_bc = diag.nutrient_bc(self.bundle)
        self._nutrient_matrix = None
        if isinstance(nutrient_bc, Robin):
            self._identity = sp.identity(g.ncells, format="csr")
            self._nutrient_matrix, self._nutrient_rhs = fv_diffusion_matrix(
                g, nutrient_bc, self.bundle.chem.chi_sigma)
            # (dt, I/dt + nutrient matrix) of the last nutrient solve
            self._nutrient_system: tuple | None = None
        self._brinkman_opts = BrinkmanOptions(tol=config.tol_flow)
        self._uzawa_space = UzawaSpace()
        # (history, sigma, free energy) of the state the last step returned;
        # history holds (t, phi) of it and of up to two states before it
        self._carry: tuple | None = None

    # -- phase-field update -------------------------------------------------

    def _ch_solve(self, phi_n: np.ndarray, rhs0: np.ndarray,
                  const_mu_part: np.ndarray, dt: float,
                  start: np.ndarray | None):
        """Per-component implicit solve for (phi, mu) at the new time level.

        Each component starts from ``start`` (phi_n when it is None) and
        takes up to ``max_nonlinear_iter`` updates; the residual is checked
        after every one of them.
        """
        m = self.config.model
        pot = self.bundle.potential
        ge = m.gamma * m.epsilon
        gi = m.gamma / m.epsilon
        tol = self.config.tol_ch
        max_iter = self.config.max_nonlinear_iter
        phi_new = np.empty_like(phi_n)
        mu_new = np.empty_like(phi_n)
        iters_used = 0
        res_max = 0.0
        A = self._neu_laplacian
        lam = self._neu_symbol
        shape = self.grid.shape
        n = self.grid.ncells
        start = phi_n if start is None else start
        # R^ = lin x^ + dt gamma/eps lam DCT(psi'_dw(x)) + b^: the linear
        # part s0 x of the convex gradient sits in lin
        lin = 1.0 + dt * lam * (ge * lam + gi * pot.split_shift)
        nonlin = dt * gi * lam
        for i in range(phi_n.shape[0]):
            hess = cst.convex_part_diag_hessian(phi_n[i], pot)
            # the symbol of P, with c the mid-range of the Hessian
            symbol = 1.0 + dt * lam * (
                ge * lam + gi * 0.5 * (float(hess.max()) + float(hess.min())))

            def solve(r: np.ndarray) -> np.ndarray:  # r -> P^-1 r
                coef = dctn(r.reshape(shape), type=2, norm="ortho")
                return idctn(coef / symbol, type=2, norm="ortho").ravel()
            x = start[i]
            x_hat = dctn(x, type=2, norm="ortho")
            cmu = const_mu_part[i].ravel()
            b_hat = dctn((dt * (A @ cmu)).reshape(shape) - rhs0[i],
                         type=2, norm="ortho")
            inv_symbol = 1.0 / symbol
            newton, rms_prev = False, np.inf
            for it in range(max_iter + 1):
                r_hat = dctn(cst.double_well_gradient(x), type=2, norm="ortho")
                r_hat *= nonlin
                r_hat += b_hat
                r_hat += lin * x_hat
                bound = tol * (1.0 + max(float(x.max()), -float(x.min())))
                rms = float(np.sqrt(np.vdot(r_hat, r_hat) / n))
                # once a sweep shrinks the residual's RMS by less than half,
                # take Newton steps: P-preconditioned GMRES on the Jacobian
                newton = newton or rms > 0.5 * rms_prev
                rms_prev = rms
                # the RMS of R never exceeds max|R|, so the residual goes back
                # to physical space for the max test only once its RMS meets
                # the bound, or for a Newton step or the failure report
                if rms <= bound or newton or it == max_iter:
                    res = idctn(r_hat, type=2, norm="ortho")
                    res_norm = float(np.abs(res).max())
                    if res_norm <= bound:
                        break
                if it == max_iter:
                    raise StepFailure(
                        f"phase solve stalled at residual {res_norm:.3e} "
                        f"after {max_iter} iterations (component {i})")
                if newton:
                    h = gi * cst.convex_part_diag_hessian(x, pot).ravel()
                    J = spla.LinearOperator(
                        (n, n), lambda d: d + dt * (A @ (ge * (A @ d) + h * d)),
                        dtype=float)
                    P = spla.LinearOperator((n, n), solve, dtype=float)
                    x = x - spla.gmres(J, res.ravel(), M=P, rtol=1e-3,
                                       atol=0.0, maxiter=5)[0].reshape(shape)
                    x_hat = dctn(x, type=2, norm="ortho")
                else:
                    x_hat -= r_hat * inv_symbol
                    x = idctn(x_hat, type=2, norm="ortho")
            iters_used = max(iters_used, it)
            res_max = max(res_max, res_norm)
            phi_new[i] = x
            mu_new[i] = (ge * (A @ x.ravel())
                         + gi * cst.potential_split(x.ravel(), pot)[0]
                         + cmu).reshape(shape)
        return phi_new, mu_new, iters_used, res_max

    # -- nutrient update ----------------------------------------------------

    def _nutrient_solve(self, sigma_n, phi_new, conv_sigma, s_sigma, dt):
        """The new nutrient and the solve count: 1 for the transform solve
        of a no-flux wall, the CG iterations under the Robin closure."""
        g = self.grid
        bphi = np.einsum("ml,lxy->mxy", self.bundle.chem.coupling, phi_new)[0]
        rhs = (sigma_n[0] / dt - conv_sigma - s_sigma[0]).ravel()
        if self._nutrient_matrix is None:
            rhs = rhs + self._neu_laplacian @ bphi.ravel()
            coef = dctn(rhs.reshape(g.shape), type=2, norm="ortho")
            coef /= 1.0 / dt + self.bundle.chem.chi_sigma * self._neu_symbol
            return idctn(coef, type=2, norm="ortho")[None], 1
        rhs = rhs + self._nutrient_rhs + self._neu_laplacian @ bphi.ravel()
        if self._nutrient_system is None or self._nutrient_system[0] != dt:
            self._nutrient_system = (
                dt, (self._identity / dt + self._nutrient_matrix).tocsr())
        iters = 0

        def cb(_):
            nonlocal iters
            iters += 1

        x, info = spla.cg(self._nutrient_system[1], rhs, x0=sigma_n[0].ravel(),
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

        flow_iters, div_residual, flow_dissipation, transport = 0, 0.0, 0.0, None
        if cfg.flow_enabled:
            if cfg.flow_backend == "darcy":
                flow = solve_darcy(terms.force, terms.s_v, m.nu, g,
                                   tol=cfg.tol_flow)
            else:
                flow = solve_brinkman(terms.force, terms.s_v, cfg.eta0,
                                      cfg.lambda0, m.nu, g,
                                      self._brinkman_opts, p0=state.p,
                                      space=self._uzawa_space)
            v, p = flow.v, flow.p
            flow_iters, div_residual = flow.iterations, flow.div_residual
            flow_dissipation = flow.dissipation
            transport = transport_terms(state, v, terms.s_v)
        else:
            v = np.zeros((2, g.ny, g.nx))
            p = np.zeros(g.shape)
        # no flow, no transport: subtracting 0.0 leaves the rest bit-equal
        conv_phi, conv_sigma = transport or (0.0, 0.0)

        # phase update: implicit convex part, everything else explicit; it
        # starts from the extrapolation of the states the stepper returned
        # last, if it returned this one
        rhs0 = state.phi - dt * conv_phi + dt * terms.s_phi
        const_mu = m.gamma / m.epsilon * cst.concave_gradient(
            state.phi, bundle.potential) + terms.n_phi
        e_before, history = None, None
        if self._carry is not None:
            kept, sigma, energy = self._carry
            t_last, phi_last = kept[-1]
            if np.array_equal(phi_last, state.phi):
                if np.array_equal(sigma, state.sigma):
                    e_before = energy
                if t_last == state.t:
                    history = kept
        history = history or ((state.t, state.phi.copy()),)
        # overflow ends the step as a FloatingPointError the run loop retries
        with np.errstate(over="raise", invalid="raise"):
            phi_new, mu_new, picard_iters, picard_res = self._ch_solve(
                state.phi, rhs0, const_mu, dt,
                extrapolate(history, state.t + dt))

        sigma_new, nutrient_iters = self._nutrient_solve(
            state.sigma, phi_new, conv_sigma, terms.s_sigma, dt)

        new_state = StateFields(phi=phi_new, mu=mu_new, sigma=sigma_new,
                                v=v, p=p, t=state.t + dt, grid=g)
        new_state.check_finite()

        energy = diag.energy_law_residual(
            state, new_state, dt, bundle, terms, transport,
            flow_dissipation=flow_dissipation, e_before=e_before)
        # a step too short to advance t in floating point restarts the history
        kept = history[-2:] if new_state.t > state.t else ()
        history = (*kept, (new_state.t, phi_new.copy()))
        self._carry = (history, sigma_new.copy(), energy.e_total)
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
        # each run starts from no kept directions and no earlier states, so
        # equal runs are bit-equal
        self._uzawa_space.clear()
        self._carry = (((state.t, state.phi.copy()),), state.sigma.copy(), e0)
        if writer is not None:
            writer.snapshot(state, step=0)
        reports: list[StepReport] = []
        dt = cfg.dt
        halvings = 0
        while state.t < cfg.t_end - 0.5 * dt:
            dt_step = min(dt, cfg.t_end - state.t)
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
            reports.append(rep)
            if writer is not None:
                phi_m, sig_m, healthy = diag.component_masses(state)
                writer.write_row(diag.csv_row(rep.energy, rep.dt, phi_m, healthy,
                                              sig_m, rep.div_residual,
                                              rep.picard_iters))
                if (cfg.snapshot_every > 0
                        and len(reports) % cfg.snapshot_every == 0):
                    writer.snapshot(state, step=len(reports))
        if writer is not None and reports:
            writer.snapshot(state, step=len(reports))
        return RunSummary(reports, state, aborted=False, dt_final=dt,
                          seed=cfg.seed, e_initial=e0)
