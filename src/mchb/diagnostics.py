"""Free energy, dissipation, masses, and the discrete energy-identity residual.

The free-energy gradient term is evaluated with the same face differences the
evolution operators are assembled from, so with zero sources and the flow
switched off the reported energy is the exact Lyapunov functional of the
convex-split update.

The energy-identity residual balances one step: change of energy per unit
time, plus dissipation and the boundary absorption term, minus the work done
by the sources, by transport, and by the flow force.  Dissipation integrands
use the updated fields with the mobilities/viscosities frozen at the earlier
state, sources use the earlier state, matching the stepper's lagging.  A
positive signed residual means spurious energy production.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from .grid import (EXTRAPOLATE, NEUMANN, Field, FaceVector, Robin,
                   arithmetic_face_coefficients, advective_divergence,
                   cell_gradient, face_gradient, inner_product,
                   wall_traces)
from .flow import korteweg_force
from .parameters import SpecBundle
from .state import StateFields

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


def nutrient_bc(bundle: SpecBundle, nutrient_mobility: float | np.ndarray):
    """Nutrient wall closure: Robin with the mean diffusivity, or no-flux."""
    k = bundle.sources.k_boundary
    if k == 0.0:
        return NEUMANN
    diff = float(np.mean(nutrient_mobility)) * bundle.chem.chi_sigma
    return Robin(k=k, target=bundle.sources.sigma_gamma, diffusivity=diff)


def free_energy(state: StateFields, bundle: SpecBundle):
    """Total free energy and its Ginzburg-Landau / chemical split."""
    g = state.grid
    m = bundle.params
    psi = cst.potential_value(state.phi)
    gl = m.gamma / m.epsilon * float(psi.sum()) * g.cell_area
    for i in range(state.phi.shape[0]):
        fv = face_gradient(Field(state.phi[i], NEUMANN, g))
        gl += 0.5 * m.gamma * m.epsilon * inner_product(fv, fv)
    n_val, _, _, _ = cst.chemical_energy(state.phi, state.sigma, bundle.chem)
    chem = float(n_val.sum()) * g.cell_area
    return gl + chem, gl, chem


def nutrient_flux_gradient(state: StateFields, bundle: SpecBundle,
                           sigma_bc) -> FaceVector:
    """Face gradient of N_sigma by the chain rule, chi grad(sigma) - B grad(phi)."""
    g = state.grid
    chem = bundle.chem
    gs = face_gradient(Field(state.sigma[0], sigma_bc, g))
    gx = chem.chi_sigma * gs.gx
    gy = chem.chi_sigma * gs.gy
    for l in range(state.phi.shape[0]):
        gp = face_gradient(Field(state.phi[l], NEUMANN, g))
        gx -= chem.coupling[0, l] * gp.gx
        gy -= chem.coupling[0, l] * gp.gy
    return FaceVector(gx, gy, g)


def dissipation_rate(state: StateFields, bundle: SpecBundle, *,
                     mobility_state: StateFields | None = None,
                     include_flow: bool = True,
                     flow_backend: str = "darcy") -> float:
    """Nonnegative dissipation functional of one state."""
    g = state.grid
    m = bundle.params
    ref = mobility_state or state
    phase_m, nut_m = cst.mobility(ref.phi, ref.sigma, bundle.mobility)
    total = 0.0
    for i in range(state.mu.shape[0]):
        fv = face_gradient(Field(state.mu[i], NEUMANN, g))
        cx, cy = arithmetic_face_coefficients(phase_m[i], g)
        total += inner_product(FaceVector(cx * fv.gx, cy * fv.gy, g), fv)
    gn = nutrient_flux_gradient(state, bundle, nutrient_bc(bundle, nut_m))
    dx, dy = arithmetic_face_coefficients(nut_m, g)
    total += inner_product(FaceVector(dx * gn.gx, dy * gn.gy, g), gn)
    if include_flow:
        total += m.nu * float((state.v**2).sum()) * g.cell_area
        if flow_backend == "brinkman":
            eta = bundle.viscosity.eta0
            lam = bundle.viscosity.lambda0
            vx = Field(state.v[0], EXTRAPOLATE, g)
            vy = Field(state.v[1], EXTRAPOLATE, g)
            uxx, uxy = cell_gradient(vx)
            vyx, vyy = cell_gradient(vy)
            d12 = 0.5 * (uxy + vyx)
            dv2 = uxx**2 + vyy**2 + 2.0 * d12**2
            divv = uxx + vyy
            total += float((2.0 * eta * dv2 + lam * divv**2).sum()) * g.cell_area
    return total


def boundary_absorption(state: StateFields, bundle: SpecBundle) -> float:
    """Boundary term ``int_Gamma K chi_sigma |sigma|^2``."""
    k = bundle.sources.k_boundary
    if k == 0.0:
        return 0.0
    _, nut_m = cst.mobility(state.phi, state.sigma, bundle.mobility)
    f = Field(state.sigma[0], nutrient_bc(bundle, nut_m), state.grid)
    return k * bundle.chem.chi_sigma * sum(
        float((tr**2).sum()) * h for tr, h in wall_traces(f))


def component_masses(state: StateFields):
    """Phase masses, nutrient masses, and the derived healthy mass."""
    w = state.grid.cell_area
    phi_masses = state.phi.sum(axis=(1, 2)) * w
    sigma_masses = state.sigma.sum(axis=(1, 2)) * w
    healthy = state.grid.area - float(phi_masses.sum())
    return phi_masses, sigma_masses, healthy


def energy_law_residual(before: StateFields, after: StateFields, dt: float,
                        bundle: SpecBundle, *, flow_enabled: bool = True,
                        flow_backend: str = "darcy",
                        sources_enabled: bool = True) -> EnergyReport:
    """Assemble the one-step energy identity and return its residual."""
    g = before.grid
    m = bundle.params
    e_before, _, _ = free_energy(before, bundle)
    e_after, gl_after, chem_after = free_energy(after, bundle)

    dissipation = dissipation_rate(after, bundle, mobility_state=before,
                                   include_flow=flow_enabled,
                                   flow_backend=flow_backend)
    boundary = boundary_absorption(after, bundle)

    _, n_phi_b, n_sigma_b, _ = cst.chemical_energy(before.phi, before.sigma,
                                                   bundle.chem)
    _, _, n_sigma_a, _ = cst.chemical_energy(after.phi, after.sigma, bundle.chem)

    work = 0.0
    if sources_enabled:
        s_phi = cst.source_phase(before.phi, before.sigma, before.mu, bundle.sources)
        s_sig = cst.source_nutrient(before.phi, before.sigma, before.mu,
                                    bundle.sources)
        work += float((s_phi * after.mu).sum()) * g.cell_area
        work -= float((s_sig * n_sigma_a).sum()) * g.cell_area
        k = bundle.sources.k_boundary
        if k > 0.0:
            _, nut_m = cst.mobility(before.phi, before.sigma, bundle.mobility)
            bc = nutrient_bc(bundle, nut_m)
            chem = bundle.chem
            for wall in range(4):
                s_tr, h = wall_traces(Field(after.sigma[0], bc, g))[wall]
                gphi = [wall_traces(Field(after.phi[l], NEUMANN, g))[wall][0]
                        for l in range(after.phi.shape[0])]
                gsig_tr = sum(chem.coupling[0, l] * gphi[l] for l in range(len(gphi))) \
                    + chem.b_vec[0]
                n_tr = chem.chi_sigma * s_tr - gsig_tr
                work += k * float((bundle.sources.sigma_gamma * n_tr
                                   + s_tr * gsig_tr).sum()) * h

    if flow_enabled:
        s_v = (cst.source_velocity(before.phi, before.sigma, bundle.sources)
               if sources_enabled else np.zeros(g.shape))
        force = korteweg_force(before.phi, before.mu, before.sigma, n_sigma_b, g)
        for i in range(before.phi.shape[0]):
            conv = advective_divergence(Field(before.phi[i], NEUMANN, g),
                                        after.v[0], after.v[1], s_v)
            work -= float((conv * after.mu[i]).sum()) * g.cell_area
        conv_s = advective_divergence(Field(before.sigma[0], NEUMANN, g),
                                      after.v[0], after.v[1], s_v)
        work -= float((conv_s * n_sigma_a[0]).sum()) * g.cell_area
        work += float((force * after.v).sum()) * g.cell_area
        work += float((after.p * s_v).sum()) * g.cell_area

    signed = (e_after - e_before) / dt + dissipation + boundary - work
    return EnergyReport(t=after.t, e_total=e_after, ginzburg_landau=gl_after,
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
