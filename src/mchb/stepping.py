"""Semi-implicit convex-split time integration of the coupled system.

One step advances, in order: (i) constitutive evaluation at the current
state, (ii) the flow solve (Darcy or Brinkman) driven by the capillary and
chemical force with the volume source, (iii) the phase-field update with the
convex part of the potential implicit and the concave part, chemical
coupling, sources and transport explicit, and (iv) one implicit nutrient
solve of ``(I/dt + N) sigma = rhs`` with the updated phase field inside the
flux.  Under either wall closure, no-flux (``K = 0``) or Robin, ``N`` is
the Kronecker sum of two axis operators, and ``grid.eigenbasis``
diagonalizes it (in the cosine basis on the no-flux wall): the solve, for
the increment ``sigma - sigma^n``, is a change of basis per axis and a
division by ``1/dt + lambda_y + lambda_x``.

The phase and nutrient mobilities are the unit ones
(``constitutive.mobility``), so every diffusion operator is the plain
finite-volume Laplacian, built once per stepper with its eigenbasis.

The phase update is solved per component on the implicit residual
``R(x) = x + dt A mu(x) - rhs``, ``mu(x) = gamma eps A x + gamma/eps
psi1'(x) + (explicit part)``, with the constant-coefficient stabilized
operator ``P = I + dt A (gamma eps A + gamma/eps c)`` of Eyre's convex split
with the Shen-Yang stabilization: ``A`` is the Neumann Laplacian and ``c``
the mid-range of the convex-part Hessian ``h`` over the value range of the
component at the step's starting state, ``[min phi^n, max phi^n]``
(``constitutive.convex_hessian_range``: ``h`` is a parabola, so three
values of it give the range).  Its ``eigenbasis``, the orthonormal DCT
(two dense products up to ``grid.DENSE_BASIS_MAX`` cells an axis, scipy's
transform above), diagonalizes ``A`` exactly, so ``P^-1`` is a forward
transform, a division by the symbol ``1 + dt gamma eps lambda^2 + dt
gamma/eps c lambda`` and an inverse transform, and the sweep is ``x <- x -
P^-1 R(x)``.  The residual is formed in physical space: an evaluation is
``psi1'(x)`` (``constitutive.convex_gradient``), ``A x``, ``mu`` and ``R``,
two products with ``A`` and pointwise work, and the converged evaluation's
``mu`` and ``A x`` are returned as they are.  Before the first evaluation
the start shifts by ``(sum rhs - sum x) / N``: the columns of ``A`` sum to
zero, so ``sum R = sum x - sum rhs``, and the mean mode of ``P`` is 1, so
every sweep keeps that balance and a component accepted with 0 updates
still has the mass of the step's right side.  The stopping test is
``max|R| <= PHASE_TOL (1 + max|x|)``, and it is checked before the first
update too.  The RMS of ``R`` never exceeds ``max|R|``, so it gates the
test: only a residual whose RMS meets the bound takes the max.

The sweep contracts the linearized error in L2 by at most
``rho = max dt gamma/eps delta lambda / P(lambda)`` over the eigenvalues
``lambda`` of ``A``, ``delta`` being the half-range of ``h``; ``h = 12 p^2
- 12 p + 2 + s0 >= s0 - 1 >= 0`` gives ``c - delta = min h >= 0``, so
``rho < 1`` at every ``dt``.
Near ``rho = 1`` (a step well above the interface relaxation time), once
a sweep shrinks the RMS of the residual by less than half against the
sweep before, the update switches to Newton steps in physical space,
solved by GMRES preconditioned with ``P``.  A component not converged
after ``MAX_PHASE_UPDATES`` (50) updates is a ``StepFailure`` that reports
its max-norm residual, and overflow or an invalid value raises
``FloatingPointError``; the run loop retries either at half the step.  The
cap only tells a stalled solve from a slow one: no step of the full
zero-source and stratified-tumor presets or of the cases of
``tools/agree.py`` takes more than 4 updates, and none of its 24 random
configurations at 1 to 1000 times the default step more than 14.

A component with ``k`` updates costs ``2k`` basis changes and ``2(k + 1)``
products with ``A``.  The sweep once ran on the cosine coefficients, with the
residual formed there from one transform of ``psi1'``: ``2k + 4`` basis
changes (of the right side, of the start, of the last ``psi1'`` and of the
residual for the max test) and 2 products.  That was the cheaper form while
a component took about 6 sweeps.  Since the tolerance below and the cubic
start a component takes 1 to 3 updates, a product costs about 0.4 of a
transform at ``128^2`` (44 against 124 us on one core), and the 4 fixed
transforms outweigh the 2 products an update adds: the first 4 flow-off
zero-source steps at ``128^2`` (seed 201) went from 28.25 basis changes
and 7 products with ``A`` a step, the nutrient flux's included, to 14.5
and 21.5.

``PHASE_TOL`` is 1e-8, about the square root of the machine
epsilon, while one step's time error is about 1e-3.  With the flow and the
sources off, an accepted solve with residual ``R`` changes the split's
energy inequality only by ``<mu, R>``: ``E(phi^{n+1}) - E(phi^n) <= -dt
<mu, A mu> + <mu, R>``, so the tolerance needs only ``|<mu, R>|`` well
below ``dt <mu, A mu>``.  Over every accepted component of 200-step
zero-source runs at 64^2 (flow on and off), 100 steps of stratified-tumor
and the 16/32/64 ladder of acceptance criterion 7, the largest ratio of
the two is 6.0e-5, against 1.3e-10 at 1e-12.  That criterion's refinement
slope reads 1.004 (1.003 at 1e-12); at 1e-6 it read 0.998, below its
bound of 1.

Each component starts from the Lagrange extrapolation to the new time of
the last states the stepper returned, as ``(t, phi)``: none on a run's first
step, linear on its second, quadratic on its third and cubic after.  Times,
not step counts, set the weights, so a retry at half the step extrapolates
to its own end.  A state the stepper did not return last (another ``phi`` or
``t``) starts from ``phi^n``, and ``run`` forgets the history, so equal runs
are bit-equal.  The start moves only where the iteration begins.  Cubic is
the measured best: the returned states carry the ``PHASE_TOL`` error, and the
weights of higher orders amplify it (at equal steps their absolute sum is
7, 15, 31 and 63 for orders 2 to 5).  Counting the largest component of
each step of 16-step runs at 64^2 and the default ``dt``, zero-source
takes 30 updates (4, 3, 3, then 2 or fewer a step) against 37 from the
quadratic start and 57 from ``phi^n``, and stratified-tumor 15 (3, 2, then
about 1 a step) against 19 and 48; a 200-step flow-off zero-source run
takes 214 against 225 and 503, and 299 from a quartic start.

With sources off, the flow off, and zero boundary permeability the update
dissipates the discrete free energy unconditionally: the convex split, the
explicit evaluation of the (phi-independent) chemical derivative, and the
implicit nutrient flux built from the updated phase field make the cross
terms cancel exactly.

Each quantity a step needs is evaluated once per state.  A flow-on step
forms ``grid.cell_gradient`` of ``phi_1..3`` and ``sigma`` once, and the
Korteweg force and the transport share that stack.  The new state's free
energy evaluates the chemical energy ``N`` once; its derivatives ``N_phi``
and ``N_sigma`` are kept with the energy, and the next step takes them, and
the energy, when its state equals the returned one in ``phi`` and
``sigma``, so a run's first step evaluates ``N`` twice and every later one
once.  The gradient part of that energy is ``cell_area <phi_i, A phi_i>``
with the phase solve's own ``A phi_i``.  None of this changes ``phi``,
``mu``, ``sigma``, ``v`` or ``p`` by a bit; the energy columns change only
by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import constitutive as cst
from . import diagnostics as diag
from .flow import FlowSolverError, UzawaSpace, korteweg_force, \
    solve_brinkman, solve_darcy
from .grid import (NEUMANN, Grid, advective_divergence, cell_gradient,
                   eigenbasis, fv_diffusion_matrix, wall_terms)
from .parameters import ScenarioConfig, SpecBundle, build_specs
from .state import StateFields, build_initial_state


# the phase solve's stopping tolerance and update cap; the module docstring
# gives the reasons for both
PHASE_TOL = 1e-8
MAX_PHASE_UPDATES = 50


class StepFailure(RuntimeError):
    """Non-convergence of one time step."""


@dataclass
class StepReport:
    dt: float
    flow_iterations: int
    picard_iters: int
    picard_residual: float
    div_residual: float
    energy: diag.EnergyReport

    @property
    def energy_after(self) -> float:
        return self.energy.e_total


@dataclass
class RunSummary:
    reports: list[StepReport]
    state: StateFields
    aborted: bool
    dt_final: float
    e_initial: float
    message: str = ""


@dataclass
class StepTerms:
    """A step's explicit terms at its starting state; see ``explicit_terms``."""
    n_phi: np.ndarray
    s_phi: np.ndarray
    s_sigma: np.ndarray
    s_v: np.ndarray
    force: np.ndarray | None
    grads: np.ndarray | None
    sources: bool


def explicit_terms(state: StateFields, bundle: SpecBundle,
                   sources_enabled: bool, flow_enabled: bool,
                   chem: tuple | None = None) -> StepTerms:
    """Chemical derivatives, sources and Korteweg force of ``state``.

    Sources are zeros when sources are off, and the force and the gradients
    are None when the flow is off.  ``grads`` stacks ``cell_gradient`` of
    ``phi_1, ..., sigma_1``, which the force and the transport share.
    ``chem`` is ``(N_phi, N_sigma)`` of ``state`` when the caller has them,
    as a stepper does from the last state's energy.  The step, its energy
    identity and the Darcy sweep's frozen snapshot all take their terms from
    here, so each is evaluated once.
    """
    p, s, mu = state.phi, state.sigma, state.mu
    if chem is None:
        _, n_phi, n_sigma, _ = cst.chemical_energy(p, s, bundle.chem)
    else:
        n_phi, n_sigma = chem
    if sources_enabled:
        s_phi, s_v = cst.source_phase(p, s, mu, bundle.sources,
                                      with_velocity=True)
        sources = (s_phi, cst.source_nutrient(p, s, mu, bundle.sources), s_v)
    else:
        sources = (np.zeros_like(p), np.zeros_like(s),
                   np.zeros(state.grid.shape))
    force = grads = None
    if flow_enabled:
        g = state.grid
        grads = np.empty((len(p) + len(s), 2) + g.shape)
        for q, out in zip([*p, *s], grads):
            cell_gradient(q, g, out=out)
        force = korteweg_force(p, mu, s, n_sigma, g, grads)
    return StepTerms(n_phi, *sources, force, grads, sources_enabled)


def transport_terms(state: StateFields, v: np.ndarray, s_v: np.ndarray,
                    grads: np.ndarray | None = None):
    """Advective divergences ``(conv_phi, conv_sigma)`` of ``state`` in ``v``,
    from the stacked gradients ``grads`` of ``explicit_terms`` if given."""
    fields = [*state.phi, state.sigma[0]]
    grads = [None] * len(fields) if grads is None else grads
    conv = [advective_divergence(q, v[0], v[1], s_v, state.grid, gq)
            for q, gq in zip(fields, grads)]
    return np.stack(conv[:-1]), conv[-1]


def extrapolate(history, t: float) -> np.ndarray | None:
    """Lagrange extrapolation to ``t`` of the ``(t_k, phi_k)`` in ``history``.

    None for a single state; ``k`` states extrapolate with the polynomial
    of degree ``k - 1``.
    """
    if len(history) < 2:
        return None
    out = np.zeros_like(history[0][1])
    for j, (tj, phi) in enumerate(history):
        w = 1.0
        for k, (tk, _) in enumerate(history):
            if k != j:
                w *= (t - tk) / (tj - tk)
        out += w * phi
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
        # in DIA storage: its offsets (-nx, -1, 0, 1, nx) are the column
        # order of the CSR rows, and a product sums the diagonals from zero
        # in that order, so it equals the CSR product bit for bit (up to the
        # sign of an exact zero) at about 4/5 of its cost
        self._neu_laplacian = fv_diffusion_matrix(g, NEUMANN)[0].todia()
        self._neu_basis = eigenbasis(g, NEUMANN)
        # nutrient flux chi_sigma grad(sigma) - B grad(phi): N is chi_sigma
        # times the Neumann Laplacian plus the wall part of its diagonal
        nutrient_bc, chi = diag.nutrient_bc(self.bundle), self.bundle.chem.chi_sigma
        self._nutrient_wall = wall_terms(g, nutrient_bc, chi)
        self._nutrient_basis = eigenbasis(g, nutrient_bc, chi)
        self._uzawa_space = UzawaSpace()
        # (history, sigma, free energy, (N_phi, N_sigma) or None) of the
        # state the last step returned; history holds (t, phi) of it and of
        # up to three states before it
        self._carry: tuple | None = None

    # -- phase-field update -------------------------------------------------

    def _ch_solve(self, phi_n: np.ndarray, rhs0: np.ndarray,
                  const_mu_part: np.ndarray, dt: float,
                  start: np.ndarray | None):
        """Per-component implicit solve for (phi, mu) at the new time level.

        Each component starts from ``start`` (phi_n when it is None) and
        takes up to ``MAX_PHASE_UPDATES`` updates; the residual is checked
        before the first and after every one of them.  Returns ``(phi, mu,
        updates, residual, A phi)``: ``mu`` and the product ``A phi`` it is
        formed from are the converged evaluation's, and ``A phi`` is kept
        for the new state's gradient energy.
        """
        m = self.config.model
        pot = self.bundle.potential
        ge = m.gamma * m.epsilon
        gi = m.gamma / m.epsilon
        tol, max_iter = PHASE_TOL, MAX_PHASE_UPDATES
        phi_new = np.empty_like(phi_n)
        mu_new = np.empty_like(phi_n)
        a_phi = np.empty_like(phi_n)
        iters_used = 0
        res_max = 0.0
        A = self._neu_laplacian
        dct, idct, lam_y, lam_x = self._neu_basis
        lam = lam_y[:, None] + lam_x[None, :]
        shape, n = self.grid.shape, self.grid.ncells
        # every component as one row of cells, the layout A works on
        rows = (phi_n.shape[0], n)
        rhs0, const_mu_part = rhs0.reshape(rows), const_mu_part.reshape(rows)
        start = (phi_n if start is None else start).reshape(rows)
        # the symbol of P is lin + nonlin c, c the component's mid-range of
        # the convex-part Hessian
        lin = 1.0 + dt * ge * lam**2
        nonlin = dt * gi * lam
        for i in range(phi_n.shape[0]):
            h_min, h_max = cst.convex_hessian_range(phi_n[i], pot)
            symbol = lin + nonlin * (0.5 * (h_min + h_max))

            def solve(r: np.ndarray) -> np.ndarray:  # r -> P^-1 r
                return idct(dct(r.reshape(shape)) / symbol).ravel()
            cmu, b = const_mu_part[i], rhs0[i]
            # A's columns sum to zero, so sum R = sum x - sum b: a start with
            # the mass of the right side keeps it even with 0 updates, and
            # P's mean mode, 1, keeps it through every sweep
            x = start[i] + (b.sum() - start[i].sum()) / n
            newton, rms_prev = False, np.inf
            for it in range(max_iter + 1):
                ax = A @ x
                mu = cst.convex_gradient(x, pot)
                mu *= gi
                mu += ge * ax
                mu += cmu
                res = A @ mu
                res *= dt
                res += x
                res -= b
                bound = tol * (1.0 + max(float(x.max()), -float(x.min())))
                rms = float(np.sqrt(np.vdot(res, res) / n))
                # once a sweep shrinks the residual's RMS by less than half,
                # take Newton steps: P-preconditioned GMRES on the Jacobian
                newton = newton or rms > 0.5 * rms_prev
                rms_prev = rms
                # the RMS of R never exceeds max|R|, so only a residual whose
                # RMS meets the bound, or the last one for the failure
                # report, takes the max test
                if rms <= bound or it == max_iter:
                    res_norm = float(np.abs(res).max())
                    if res_norm <= bound:
                        break
                if it == max_iter:
                    raise StepFailure(
                        f"phase solve stalled at residual {res_norm:.3e} "
                        f"after {max_iter} iterations (component {i})")
                if newton:
                    h = gi * cst.convex_part_diag_hessian(x, pot)
                    J = spla.LinearOperator(
                        (n, n), lambda d: d + dt * (A @ (ge * (A @ d) + h * d)),
                        dtype=float)
                    P = spla.LinearOperator((n, n), solve, dtype=float)
                    x -= spla.gmres(J, res, M=P, rtol=1e-3, atol=0.0,
                                    maxiter=5)[0]
                else:
                    x -= solve(res)
            iters_used = max(iters_used, it)
            res_max = max(res_max, res_norm)
            phi_new[i] = x.reshape(shape)
            mu_new[i] = mu.reshape(shape)
            a_phi[i] = ax.reshape(shape)
        return phi_new, mu_new, iters_used, res_max, a_phi

    # -- nutrient update ----------------------------------------------------

    def _nutrient_solve(self, sigma_n, phi_new, conv_sigma, s_sigma, dt):
        """The new nutrient and the solve count, always 1.

        ``d = sigma - sigma^n`` solves ``(I/dt + N) d = rhs - (I/dt + N)
        sigma^n``, where ``N sigma^n`` with its wall source is the flux
        balance of ``sigma^n``: a state at rest gives ``d = 0`` exactly.
        """
        g, chem = self.grid, self.bundle.chem
        bphi = np.einsum("ml,lxy->mxy", chem.coupling, phi_new)[0]
        wall_diag, wall = self._nutrient_wall
        flux = self._neu_laplacian @ (bphi - chem.chi_sigma * sigma_n[0]).ravel()
        r = flux.reshape(g.shape) - wall_diag * sigma_n[0] + wall \
            - conv_sigma - s_sigma[0]
        forward, inverse, lam_y, lam_x = self._nutrient_basis
        coef = forward(r) / (1.0 / dt + lam_y[:, None] + lam_x[None, :])
        return (sigma_n[0] + inverse(coef))[None], 1

    # -- one step -----------------------------------------------------------

    def step(self, state: StateFields, dt: float) -> tuple[StateFields, StepReport]:
        if dt <= 0:
            raise ValueError("dt must be positive")
        cfg = self.config
        m = cfg.model
        g = self.grid
        bundle = self.bundle
        # the energy and the chemical derivatives of the state the stepper
        # returned last, if it returned this one; the extrapolated start
        # also needs the same time
        e_before, chem, history = None, None, None
        if self._carry is not None:
            kept, sigma, energy, derivatives = self._carry
            t_last, phi_last = kept[-1]
            if np.array_equal(phi_last, state.phi):
                if np.array_equal(sigma, state.sigma):
                    e_before, chem = energy, derivatives
                if t_last == state.t:
                    history = kept
        history = history or ((state.t, state.phi.copy()),)
        terms = explicit_terms(state, bundle, cfg.sources_enabled,
                               cfg.flow_enabled, chem)

        flow_iters, div_residual, flow_dissipation, transport = 0, 0.0, 0.0, None
        if cfg.flow_enabled:
            if cfg.flow_backend == "darcy":
                flow = solve_darcy(terms.force, terms.s_v, m.nu, g)
            else:
                flow = solve_brinkman(terms.force, terms.s_v, cfg.eta0,
                                      cfg.lambda0, m.nu, g,
                                      space=self._uzawa_space)
            v, p = flow.v, flow.p
            flow_iters, div_residual = flow.iterations, flow.div_residual
            flow_dissipation = flow.dissipation
            transport = transport_terms(state, v, terms.s_v, terms.grads)
        else:
            v = np.zeros((2, g.ny, g.nx))
            p = np.zeros(g.shape)
        # no flow, no transport: subtracting 0.0 leaves the rest bit-equal
        conv_phi, conv_sigma = transport or (0.0, 0.0)

        # phase update: implicit convex part, everything else explicit; it
        # starts from the extrapolation of the kept states
        rhs0 = state.phi - dt * conv_phi + dt * terms.s_phi
        const_mu = m.gamma / m.epsilon * cst.concave_gradient(
            state.phi, bundle.potential) + terms.n_phi
        # overflow ends the step as a FloatingPointError the run loop retries
        with np.errstate(over="raise", invalid="raise"):
            phi_new, mu_new, picard_iters, picard_res, a_phi = self._ch_solve(
                state.phi, rhs0, const_mu, dt,
                extrapolate(history, state.t + dt))

        sigma_new, _ = self._nutrient_solve(
            state.sigma, phi_new, conv_sigma, terms.s_sigma, dt)

        new_state = StateFields(phi=phi_new, mu=mu_new, sigma=sigma_new,
                                v=v, p=p, t=state.t + dt, grid=g)
        new_state.check_finite()

        # the new state's energy takes its gradient part from the phase
        # solve's A phi, and its chemical derivatives go to the next step
        after = diag.free_energy(new_state, bundle, a_phi=a_phi,
                                 with_derivatives=True)
        energy = diag.energy_law_residual(
            state, new_state, dt, bundle, terms, transport,
            flow_dissipation=flow_dissipation, e_before=e_before,
            e_after=after)
        # a step too short to advance t in floating point restarts the history
        kept = history[-3:] if new_state.t > state.t else ()
        history = (*kept, (new_state.t, phi_new.copy()))
        self._carry = (history, sigma_new.copy(), energy.e_total, after[3:])
        report = StepReport(dt=dt, flow_iterations=flow_iters,
                            picard_iters=picard_iters, picard_residual=picard_res,
                            div_residual=div_residual, energy=energy)
        return new_state, report

    # -- run loop -----------------------------------------------------------

    def run(self, writer=None, state: StateFields | None = None) -> RunSummary:
        cfg = self.config
        state = state or build_initial_state(cfg, self.bundle)
        e0, _, _ = diag.free_energy(state, self.bundle)
        # each run starts from no kept directions and no earlier states, so
        # equal runs are bit-equal
        self._uzawa_space.clear()
        self._carry = (((state.t, state.phi.copy()),), state.sigma.copy(), e0,
                       None)
        if writer is not None:
            writer.snapshot(state, step=0)
        dumped = 0  # the step of the last snapshot
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
                                      dt_final=dt, e_initial=e0,
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
                    dumped = len(reports)
        if writer is not None and dumped != len(reports):
            writer.snapshot(state, step=len(reports))
        return RunSummary(reports, state, aborted=False, dt_final=dt,
                          e_initial=e0)
