"""State container and initial conditions.

The healthy fraction is never stored: it is ``1 - sum(phi)`` by definition,
so the volume-fraction bookkeeping closes identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from .grid import NEUMANN, Grid, fv_diffusion_matrix
from .parameters import ScenarioConfig, SpecBundle, build_specs

# random-smooth: base fractions in the convex region of the double well, so
# the seeded perturbation of this peak amplitude relaxes smoothly instead of
# spinodally
RANDOM_BASE = (0.08, 0.06, 0.05)
RANDOM_AMPLITUDE = 0.05


@dataclass
class StateFields:
    """Discrete unknowns on one grid at one time."""

    phi: np.ndarray     # (L, ny, nx)
    mu: np.ndarray      # (L, ny, nx)
    sigma: np.ndarray   # (M, ny, nx)
    v: np.ndarray       # (2, ny, nx)
    p: np.ndarray       # (ny, nx)
    t: float
    grid: Grid

    def check_finite(self):
        for name in ("phi", "mu", "sigma", "v", "p"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise FloatingPointError(f"non-finite values in {name}")


def smooth_random_field(rng: np.random.Generator, grid: Grid,
                        modes: int, amplitude: float) -> np.ndarray:
    """Seeded low-mode cosine synthesis; compatible with zero-flux walls."""
    x, y = grid.cell_axes()
    coeff = rng.standard_normal((modes, modes))
    out = np.zeros(grid.shape)
    for i in range(modes):
        cx = np.cos(i * np.pi * x / grid.lx)
        for j in range(modes):
            if i == 0 and j == 0:
                continue
            decay = np.exp(-0.35 * (i * i + j * j))
            out += coeff[i, j] * decay * cx * np.cos(j * np.pi * y / grid.ly)
    peak = np.abs(out).max()
    if peak > 0:
        out *= amplitude / peak
    return out


def _annulus(rad: np.ndarray, r_in: float, r_out: float, width: float) -> np.ndarray:
    outer = 0.5 * (1.0 - np.tanh((rad - r_out) / width))
    inner = 0.5 * (1.0 - np.tanh((rad - r_in) / width)) if r_in > 0 else 0.0
    return outer - inner


def consistent_mu(phi: np.ndarray, sigma: np.ndarray, bundle: SpecBundle,
                  grid: Grid) -> np.ndarray:
    """Chemical potential matching the variational definition at this state."""
    m = bundle.params
    grad = cst.double_well_gradient(phi)
    _, n_phi, _, _ = cst.chemical_energy(phi, sigma, bundle.chem)
    # the Neumann matrix is minus the five-point Laplacian
    a_neu, _ = fv_diffusion_matrix(grid, NEUMANN)
    mu = np.empty_like(phi)
    for i in range(phi.shape[0]):
        a_phi = (a_neu @ phi[i].ravel()).reshape(grid.shape)
        mu[i] = m.gamma * m.epsilon * a_phi \
            + m.gamma / m.epsilon * grad[i] + n_phi[i]
    return mu


def build_initial_state(config: ScenarioConfig,
                        bundle: SpecBundle | None = None) -> StateFields:
    """Initial fields for the configured scenario (seeded and deterministic)."""
    grid = Grid(config.grid_nx, config.grid_ny, config.domain_lx, config.domain_ly)
    bundle = bundle or build_specs(config.model,
                                   source_variant=config.source_variant)
    m = config.model
    # B is M x L: the phase and nutrient counts are the model's
    n_nutrient, n_phase = bundle.chem.coupling.shape
    phi = np.zeros((n_phase, grid.ny, grid.nx))
    sigma = np.full((n_nutrient, grid.ny, grid.nx), m.sigma_Omega)

    if config.initial_condition == "stratified":
        # nested annuli: proliferating rim, quiescent shell, necrotic core
        x, y = grid.cell_axes()
        rad = np.hypot(x - 0.5 * grid.lx, y - 0.5 * grid.ly)
        scale = min(grid.lx, grid.ly)
        r3, r2, r1 = 0.10 * scale, 0.20 * scale, 0.30 * scale
        width = 0.065 * scale
        phi[0] = _annulus(rad, r2, r1, width)
        phi[1] = _annulus(rad, r3, r2, width)
        phi[2] = _annulus(rad, 0.0, r3, width)
    elif config.initial_condition == "random-smooth":
        seeds = np.random.SeedSequence(config.seed).spawn(n_phase + n_nutrient)
        for i in range(n_phase):
            rng = np.random.default_rng(seeds[i])
            phi[i] = RANDOM_BASE[i] + smooth_random_field(
                rng, grid, config.init_modes, RANDOM_AMPLITUDE)
        rng = np.random.default_rng(seeds[n_phase])
        sigma[0] += smooth_random_field(rng, grid, config.init_modes,
                                        RANDOM_AMPLITUDE)
    elif config.initial_condition == "uniform":
        phi[0] = 1.0
    else:
        raise ValueError(f"unknown initial condition {config.initial_condition!r}")

    mu = consistent_mu(phi, sigma, bundle, grid)
    return StateFields(phi=phi, mu=mu, sigma=sigma,
                       v=np.zeros((2, grid.ny, grid.nx)),
                       p=np.zeros(grid.shape), t=0.0, grid=grid)
