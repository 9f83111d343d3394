"""Manufactured-solution convergence studies for the spatial discretizations.

Each study evaluates a discrete operator (or full solve) against a smooth
closed-form solution on a ladder of grids and fits the least-squares slope of
log(error) against log(h).  Second-order interior stencils with the ghost
closures used here should sit at slope 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from .grid import (NEUMANN, Field, Grid, advective_divergence,
                   fv_diffusion_matrix, l2_norm)
from .flow import solve_darcy
from .parameters import build_specs, default_parameters


@dataclass
class ConvergenceStudy:
    name: str
    ns: list[int]
    errors: list[float]
    slope: float

    def line(self) -> str:
        errs = ", ".join(f"{e:.3e}" for e in self.errors)
        return f"{self.name}: slope {self.slope:.3f}  (errors {errs})"


def _fit_slope(ns, errors) -> float:
    h = np.log([1.0 / n for n in ns])
    e = np.log(errors)
    return float(np.polyfit(h, e, 1)[0])


def _on_grid(*fields) -> np.ndarray:
    """Stack one-axis or full fields into one ``(k, ny, nx)`` array."""
    return np.stack(np.broadcast_arrays(*fields))


def mms_darcy(ns=(32, 64, 128, 256), nu: float = 1.0):
    """Pressure-Poisson/Darcy solve against sin-sin pressure, smooth velocity."""
    p_errs, v_errs = [], []
    for n in ns:
        grid = Grid(n, n, 1.0, 1.0)
        x, y = grid.cell_axes()
        sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
        cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
        p_star = sx * sy
        vx = sx * cy
        vy = cx * sy
        s_v = 2.0 * np.pi * cx * cy
        force = np.stack([np.pi * cx * sy + nu * vx, np.pi * sx * cy + nu * vy])
        res = solve_darcy(force, s_v, nu, grid, tol=1e-12)
        p_errs.append(l2_norm(res.p - p_star, grid))
        v_errs.append(l2_norm(np.stack([res.v[0] - vx, res.v[1] - vy]), grid))
    return (ConvergenceStudy("darcy-pressure", list(ns), p_errs,
                             _fit_slope(ns, p_errs)),
            ConvergenceStudy("darcy-velocity", list(ns), v_errs,
                             _fit_slope(ns, v_errs)))


def _manufactured_phase(grid: Grid):
    x, y = grid.cell_axes()
    c1 = np.cos(np.pi * x) * np.cos(np.pi * y)
    c2 = np.cos(2.0 * np.pi * x)
    c3 = np.cos(np.pi * y)
    phi = _on_grid(0.4 + 0.2 * c1, 0.3 + 0.15 * c2, 0.2 + 0.1 * c3)
    lap = _on_grid(-0.2 * 2.0 * np.pi**2 * c1,
                   -0.15 * 4.0 * np.pi**2 * c2,
                   -0.1 * np.pi**2 * c3)
    return phi, lap


def _laplacians(ns):
    """The Neumann ``fv_diffusion_matrix`` of each grid of ``ns``, in turn."""
    for n in ns:
        yield fv_diffusion_matrix(Grid(n, n, 1.0, 1.0), NEUMANN)[0]


def mms_ch_operator(ns=(32, 64, 128, 256), laplacians=None):
    """Apply the chemical-potential operator to a manufactured phase field.

    ``laplacians`` holds the Neumann Laplacian of each grid of ``ns``, as
    ``run_all`` shares them; without it the study assembles its own.
    """
    m = default_parameters()
    errs = []
    for n, a_neu in zip(ns, laplacians or _laplacians(ns), strict=True):
        grid = Grid(n, n, 1.0, 1.0)
        phi, lap = _manufactured_phase(grid)
        grad = cst.double_well_gradient(phi)
        mu_star = -m.gamma * m.epsilon * lap + m.gamma / m.epsilon * grad
        mu_h = np.stack([
            (m.gamma * m.epsilon * (a_neu @ phi[i].ravel())).reshape(grid.shape)
            + m.gamma / m.epsilon * grad[i]
            for i in range(3)
        ])
        errs.append(l2_norm(mu_h - mu_star, grid))
    return ConvergenceStudy("ch-operator", list(ns), errs, _fit_slope(ns, errs))


def mms_nutrient_operator(ns=(32, 64, 128, 256), laplacians=None):
    """Apply the nutrient flux operator div(D grad N_sigma) with no-flux walls.

    ``laplacians`` is as for ``mms_ch_operator``.
    """
    chem = build_specs(default_parameters()).chem
    errs = []
    for n, a_d in zip(ns, laplacians or _laplacians(ns), strict=True):
        grid = Grid(n, n, 1.0, 1.0)
        x, y = grid.cell_axes()
        phi, lap_phi = _manufactured_phase(grid)
        cx, c2y = np.cos(np.pi * x), np.cos(2.0 * np.pi * y)
        sigma = 1.0 + 0.3 * cx * c2y
        lap_sigma = -0.3 * 5.0 * np.pi**2 * cx * c2y
        target = chem.chi_sigma * lap_sigma \
            - sum(chem.coupling[0, l] * lap_phi[l] for l in range(3))
        n_sigma = chem.chi_sigma * sigma \
            - sum(chem.coupling[0, l] * phi[l] for l in range(3))
        applied = -(a_d @ n_sigma.ravel()).reshape(grid.shape)
        errs.append(l2_norm(applied - target, grid))
    return ConvergenceStudy("nutrient-operator", list(ns), errs,
                            _fit_slope(ns, errs))


def mms_advection(ns=(32, 64, 128, 256)):
    """Upwind convective term against the analytic (grad q) . v + q div v."""
    errs = []
    for n in ns:
        grid = Grid(n, n, 1.0, 1.0)
        x, y = grid.cell_axes()
        sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
        cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
        q = 0.5 + 0.25 * cx * cy
        qx = -0.25 * np.pi * sx * cy
        qy = -0.25 * np.pi * cx * sy
        vx = sx * cy
        vy = -0.5 * cx * sy
        div_v = 0.5 * np.pi * cx * cy
        target = qx * vx + qy * vy + q * div_v
        got = advective_divergence(Field(q, NEUMANN, grid), vx, vy, div_v)
        errs.append(l2_norm(got - target, grid))
    return ConvergenceStudy("advective-divergence", list(ns), errs,
                            _fit_slope(ns, errs))


def run_all(ns=(32, 64, 128, 256)) -> list[ConvergenceStudy]:
    """Every study on the ladder ``ns``, one Laplacian assembly per grid."""
    dp, dv = mms_darcy(ns)
    laplacians = list(_laplacians(ns))
    return [dp, dv, mms_ch_operator(ns, laplacians),
            mms_nutrient_operator(ns, laplacians), mms_advection(ns)]


def check_slopes(studies: list[ConvergenceStudy]) -> list[str]:
    """Names of studies whose slope misses its acceptance window."""
    bad = []
    for s in studies:
        if s.name in ("darcy-pressure", "darcy-velocity"):
            if abs(s.slope - 2.0) > 0.2:
                bad.append(s.name)
        elif s.slope < 1.8:
            bad.append(s.name)
    return bad
