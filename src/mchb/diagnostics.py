"""Free energy, dissipation, masses, and the discrete energy-identity residual.

Every ``int |grad a|^2`` sums the squares of the same face differences the
evolution operators are assembled from, so with zero sources and the flow
switched off the reported energy is the exact Lyapunov functional of the
convex-split update.  The mirror (no-flux) closure makes every wall face
difference zero, so each sum runs over the interior differences of the cell
field alone (``np.diff`` along each axis), weighted by ``cell_area / h**2``.
The nutrient flux of the dissipation has the interior differences of
``chi_sigma sigma - B phi``; under the Robin closure its wall faces add
``cell_area sum (k (sigma_Gamma - t))**2`` over the nutrient traces ``t``,
since the closure sets ``chi_sigma (ghost - edge) / h = k (sigma_Gamma - t)``.
The energy of a state the stepper made takes ``int |grad phi_i|^2`` as
``cell_area <phi_i, A phi_i>`` from the phase solve's product ``A phi_i``
(``A`` the Neumann ``fv_diffusion_matrix``): summation by parts makes that
the sum of the same squared face differences, equal up to rounding.  The
difference sums stay the reference for every state without that product,
such as a run's initial state.

The energy-identity residual balances one step: change of energy per unit
time, plus dissipation and the boundary absorption term, minus the work done
by the sources, by the Robin wall, by transport, and by the flow force.  The
identity consumes the step's own explicit terms, built once by
``stepping.explicit_terms`` and ``stepping.transport_terms``: the sources
(zeros when switched off) and Korteweg force of the earlier state and the
transport in the new velocity.  The new state's energy comes from the
stepper too, with the chemical derivatives it keeps for the next step.
The flow's dissipation is the one its solve
reported (``FlowResult.dissipation``); the phase and nutrient dissipation
integrands use the updated fields with the model's unit mobilities, and the
boundary terms use the Robin closure the nutrient solve used.  A positive
signed residual means spurious energy production.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import constitutive as cst
from .grid import NEUMANN, Grid, Robin, wall_traces
from .parameters import SpecBundle
from .state import StateFields

# unused here: kept only because the benchmark's span tracer wraps these names
from .flow import korteweg_force  # noqa: F401
from .grid import advective_divergence  # noqa: F401

if TYPE_CHECKING:
    from .stepping import StepTerms

CSV_HEADER = ["t", "dt", "E", "ginzburg_landau", "chemical", "dissipation",
              "boundary_term", "source_work", "identity_residual",
              "mass_phi_1", "mass_phi_2", "mass_phi_3", "mass_healthy",
              "mass_sigma_1", "div_residual", "picard_iters"]


@dataclass
class EnergyReport:
    t: float
    e_total: float
    ginzburg_landau: float
    chemical: float
    dissipation: float
    boundary_term: float
    source_work: float
    identity_residual: float
    residual_signed: float
    e_before: float


def nutrient_bc(bundle: SpecBundle):
    """Nutrient wall closure: no-flux when ``K = 0``, else Robin with rate
    ``K``, target ``sigma_Gamma`` and diffusivity ``chi_sigma``.

    The one reader of the model's ``K`` and ``sigma_Gamma``: the nutrient
    solve, the dissipation, the boundary absorption and the Robin wall's
    work all take the wall from the closure returned here.
    """
    m = bundle.params
    if m.K == 0.0:
        return NEUMANN
    return Robin(k=m.K, target=m.sigma_Gamma, diffusivity=m.chi_sigma)


def free_energy(state: StateFields, bundle: SpecBundle, *,
                a_phi: np.ndarray | None = None,
                with_derivatives: bool = False):
    """Total free energy and its Ginzburg-Landau / chemical split.

    ``a_phi`` is ``A phi`` per component, ``A`` the Neumann matrix of
    ``fv_diffusion_matrix``, when the caller has it, as the phase solve
    does: then ``int |grad phi_i|^2`` is ``cell_area <phi_i, A phi_i>``,
    which sums by parts to the face differences and differs from them only
    by rounding.  With ``with_derivatives`` the chemical derivatives
    ``N_phi`` and ``N_sigma`` of ``state`` follow as fourth and fifth items,
    from the same evaluation of ``N``.
    """
    g = state.grid
    m = bundle.params
    w = g.cell_area
    if a_phi is None:
        grad_sq = sum(_gradient_square_sum(c, g) for c in state.phi)
    else:
        grad_sq = float(np.vdot(state.phi, a_phi)) * w
    gl = (m.gamma / m.epsilon * cst.potential_sum(state.phi) * w
          + 0.5 * m.gamma * m.epsilon * grad_sq)
    n_val, n_phi, n_sigma, _ = cst.chemical_energy(state.phi, state.sigma,
                                                   bundle.chem)
    chem = float(n_val.sum()) * w
    return (gl + chem, gl, chem, n_phi, n_sigma) if with_derivatives \
        else (gl + chem, gl, chem)


def _gradient_square_sum(a: np.ndarray, grid: Grid) -> float:
    """``int |grad a|^2`` of a cell field under the mirror closure: the sum
    over its interior differences, every wall face difference being zero."""
    dx = np.diff(a, axis=1)
    dy = np.diff(a, axis=0)
    w = grid.cell_area
    return float(np.vdot(dx, dx)) * (w / grid.hx**2) \
        + float(np.vdot(dy, dy)) * (w / grid.hy**2)


def dissipation_rate(state: StateFields, bundle: SpecBundle) -> float:
    """Nonnegative phase and nutrient dissipation of ``state`` (unit
    mobilities); the flow's part comes with the flow solve.

    The nutrient flux is the face gradient of ``N_sigma`` by the chain rule,
    that of ``chi_sigma sigma - B phi``, with sigma under the nutrient wall
    closure.
    """
    g = state.grid
    chem = bundle.chem
    total = sum(_gradient_square_sum(c, g) for c in state.mu)
    q = chem.chi_sigma * state.sigma[0] \
        - np.einsum("l,lxy->xy", chem.coupling[0], state.phi)
    total += _gradient_square_sum(q, g)
    bc = nutrient_bc(bundle)
    if isinstance(bc, Robin):
        for tr, _ in wall_traces(state.sigma[0], bc, g):
            flux = bc.k * (bc.target - tr)
            total += g.cell_area * float(np.vdot(flux, flux))
    return total


def boundary_absorption(state: StateFields, bundle: SpecBundle) -> float:
    """Boundary term ``int_Gamma K chi_sigma |sigma|^2`` under the Robin
    closure of the nutrient wall, 0 on a no-flux wall."""
    bc = nutrient_bc(bundle)
    if not isinstance(bc, Robin):
        return 0.0
    traces = wall_traces(state.sigma[0], bc, state.grid)
    return bc.k * bc.diffusivity * sum(
        float((tr**2).sum()) * h for tr, h in traces)


def component_masses(state: StateFields):
    """Phase masses, nutrient masses, and the derived healthy mass."""
    w = state.grid.cell_area
    phi_masses = state.phi.sum(axis=(1, 2)) * w
    sigma_masses = state.sigma.sum(axis=(1, 2)) * w
    healthy = state.grid.area - float(phi_masses.sum())
    return phi_masses, sigma_masses, healthy


def energy_law_residual(before: StateFields, after: StateFields, dt: float,
                        bundle: SpecBundle, terms: StepTerms,
                        transport: tuple | None, *,
                        flow_dissipation: float = 0.0,
                        e_before: float | None = None,
                        e_after: tuple | None = None) -> EnergyReport:
    """Assemble the one-step energy identity and return its residual.

    ``terms`` are the step's explicit terms at ``before`` (``explicit_terms``
    in ``stepping``) and ``transport`` its ``(conv_phi, conv_sigma)`` in the
    new velocity, None when the flow is off.  ``flow_dissipation`` is the
    dissipation the step's flow solve reported, 0 with the flow off.
    ``e_before`` is the free energy of ``before`` and ``e_after`` the
    ``free_energy(after, bundle, with_derivatives=True)`` items when the
    caller already has them, as a stepper does; otherwise they are computed
    here.  With the sources off their work terms are zero and are skipped.
    """
    g = before.grid
    w = g.cell_area
    if e_before is None:
        e_before, _, _ = free_energy(before, bundle)
    if e_after is None:
        e_after = free_energy(after, bundle, with_derivatives=True)
    e_total, gl_after, chem_after, _, n_sigma_a = e_after

    dissipation = dissipation_rate(after, bundle) + flow_dissipation
    boundary = boundary_absorption(after, bundle)

    work = 0.0
    if terms.sources:
        work += float(np.vdot(terms.s_phi, after.mu)) * w
        work -= float(np.vdot(terms.s_sigma, n_sigma_a)) * w
    bc = nutrient_bc(bundle)
    if isinstance(bc, Robin):
        # the Robin wall's work, K (sigma_Gamma N_sigma + sigma B phi) on the
        # traces, counted with the absorption it comes with
        coupling = bundle.chem.coupling[0]
        phi_tr = [wall_traces(c, NEUMANN, g) for c in after.phi]
        for wall, (s_tr, h) in enumerate(wall_traces(after.sigma[0], bc, g)):
            bphi_tr = sum(coupling[l] * tr[wall][0]
                          for l, tr in enumerate(phi_tr))
            n_tr = bc.diffusivity * s_tr - bphi_tr
            work += bc.k * float((bc.target * n_tr
                                  + s_tr * bphi_tr).sum()) * h

    if transport is not None:
        conv_phi, conv_sigma = transport
        work -= float(np.vdot(conv_phi, after.mu)) * w
        work -= float(np.vdot(conv_sigma, n_sigma_a[0])) * w
        work += float(np.vdot(terms.force, after.v)) * w
        if terms.sources:
            work += float(np.vdot(after.p, terms.s_v)) * w

    signed = (e_total - e_before) / dt + dissipation + boundary - work
    return EnergyReport(t=after.t, e_total=e_total, ginzburg_landau=gl_after,
                        chemical=chem_after, dissipation=dissipation,
                        boundary_term=boundary, source_work=work,
                        identity_residual=abs(signed), residual_signed=signed,
                        e_before=e_before)


def csv_row(report: EnergyReport, dt: float, phi_masses, healthy: float,
            sigma_masses, div_residual: float, picard_iters: int) -> list[str]:
    vals = [report.t, dt, report.e_total, report.ginzburg_landau,
            report.chemical, report.dissipation, report.boundary_term,
            report.source_work, report.identity_residual,
            phi_masses[0], phi_masses[1], phi_masses[2], healthy,
            sigma_masses[0], div_residual, float(picard_iters)]
    return [format(v, ".17g") for v in vals]
