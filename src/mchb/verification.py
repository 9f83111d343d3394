"""Manufactured-solution convergence studies for the spatial discretizations.

Each study evaluates a discrete operator (or full solve) against a smooth
closed-form solution on a ladder of grids and fits the least-squares slope of
log(error) against log(h).  Second-order interior stencils with the ghost
closures used here should sit at slope 2 on a ladder of two or more grids.
A ``run_all`` pass builds each grid's Laplacian and phase fields once for both
operator studies; the studies form full-grid intermediates in place, in the
order of the plain expressions, so every error is unchanged to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from .grid import NEUMANN, Grid, advective_divergence, fv_diffusion_matrix
from .flow import solve_darcy
from .parameters import build_specs, check_ladder, default_parameters


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


def _error_norm(err: np.ndarray, grid: Grid) -> float:
    """``l2_norm(err, grid)``, squaring ``err`` in place."""
    return float(np.sqrt(np.square(err, out=err).sum() * grid.cell_area))


def mms_darcy(ns=(32, 64, 128, 256)):
    """Pressure-Poisson/Darcy solve against sin-sin pressure, smooth velocity.

    The permeability coefficient is fixed at nu = 1 and the solve's
    tolerance at 1e-12.
    """
    check_ladder(ns)
    p_errs, v_errs = [], []
    for n in ns:
        grid = Grid(n, n, 1.0, 1.0)
        x, y = grid.cell_axes()
        sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
        cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
        v_star = np.array([sx, cx]) * np.array([cy, sy])
        force = np.pi * np.array([cx, sx]) * np.array([sy, cy])
        force += v_star
        res = solve_darcy(force, 2.0 * np.pi * cx * cy, 1.0, grid, tol=1e-12)
        res.p -= sx * sy
        res.v -= v_star
        p_errs.append(_error_norm(res.p, grid))
        v_errs.append(_error_norm(res.v, grid))
    return (ConvergenceStudy("darcy-pressure", list(ns), p_errs,
                             _fit_slope(ns, p_errs)),
            ConvergenceStudy("darcy-velocity", list(ns), v_errs,
                             _fit_slope(ns, v_errs)))


def _manufactured_phase(grid: Grid):
    """Phase fields and their Laplacians, each ``(3, ny, nx)``."""
    x, y = grid.cell_axes()
    c = np.empty((3,) + grid.shape)
    np.multiply(np.cos(np.pi * x), np.cos(np.pi * y), out=c[0])
    c[1], c[2] = np.cos(2.0 * np.pi * x), np.cos(np.pi * y)
    phi = c * np.reshape([0.2, 0.15, 0.1], (3, 1, 1))
    phi += np.reshape([0.4, 0.3, 0.2], (3, 1, 1))
    c *= np.reshape([-0.2 * 2.0 * np.pi**2, -0.15 * 4.0 * np.pi**2,
                     -0.1 * np.pi**2], (3, 1, 1))
    return phi, c


def _operator_data(ns):
    """Per grid of ``ns``, in turn: its Neumann ``fv_diffusion_matrix`` and
    its ``_manufactured_phase``."""
    for n in ns:
        grid = Grid(n, n, 1.0, 1.0)
        yield fv_diffusion_matrix(grid, NEUMANN)[0], _manufactured_phase(grid)


def mms_ch_operator(ns=(32, 64, 128, 256), shared=None):
    """Apply the chemical-potential operator to a manufactured phase field.

    ``shared`` holds the ``_operator_data`` of ``ns``, as ``run_all``
    shares it; without it the study builds its own.
    """
    check_ladder(ns)
    m = default_parameters()
    ge, g_e = m.gamma * m.epsilon, m.gamma / m.epsilon
    errs = []
    for n, (a_neu, (phi, lap)) in zip(ns, shared or _operator_data(ns),
                                      strict=True):
        grid = Grid(n, n, 1.0, 1.0)
        # err = mu_h - mu_star, component by component
        err = np.multiply(lap, -ge)
        for i in range(3):
            grad = g_e * cst.double_well_gradient(phi[i])
            err[i] += grad
            mu_h = ge * (a_neu @ phi[i].ravel()).reshape(grid.shape) + grad
            np.subtract(mu_h, err[i], out=err[i])
        errs.append(_error_norm(err, grid))
    return ConvergenceStudy("ch-operator", list(ns), errs, _fit_slope(ns, errs))


def mms_nutrient_operator(ns=(32, 64, 128, 256), shared=None):
    """Apply the nutrient flux operator div(D grad N_sigma) with no-flux walls.

    ``shared`` is as for ``mms_ch_operator``.
    """
    check_ladder(ns)
    chem = build_specs(default_parameters()).chem
    b = chem.coupling[0]
    errs = []
    for n, (a_d, (phi, lap_phi)) in zip(ns, shared or _operator_data(ns),
                                        strict=True):
        grid = Grid(n, n, 1.0, 1.0)
        x, y = grid.cell_axes()
        cx, c2y = np.cos(np.pi * x), np.cos(2.0 * np.pi * y)
        target = chem.chi_sigma * (-0.3 * 5.0 * np.pi**2 * cx * c2y)
        n_sigma = chem.chi_sigma * (1.0 + 0.3 * cx * c2y)
        # subtract sum_l b_l f_l, in order of l, from each (f = lap_phi, phi)
        acc, term = np.empty((2,) + grid.shape)
        for out, f in ((target, lap_phi), (n_sigma, phi)):
            np.multiply(f[0], b[0], out=acc)
            for l in (1, 2):
                acc += np.multiply(f[l], b[l], out=term)
            out -= acc
        err = -(a_d @ n_sigma.ravel()).reshape(grid.shape)
        err -= target
        errs.append(_error_norm(err, grid))
    return ConvergenceStudy("nutrient-operator", list(ns), errs,
                            _fit_slope(ns, errs))


def mms_advection(ns=(32, 64, 128, 256)):
    """Centred convective term against the analytic (grad q) . v + q div v."""
    check_ladder(ns)
    errs = []
    for n in ns:
        grid = Grid(n, n, 1.0, 1.0)
        x, y = grid.cell_axes()
        sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
        cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
        q = 0.5 + 0.25 * cx * cy
        vx, vy = sx * cy, -0.5 * cx * sy
        div_v = 0.5 * np.pi * cx * cy
        # qx vx + qy vy + q div_v, summed before it is subtracted
        target = -0.25 * np.pi * sx * cy * vx
        target += -0.25 * np.pi * cx * sy * vy
        target += q * div_v
        err = advective_divergence(q, vx, vy, div_v, grid)
        err -= target
        errs.append(_error_norm(err, grid))
    return ConvergenceStudy("advective-divergence", list(ns), errs,
                            _fit_slope(ns, errs))


def run_all(ns=(32, 64, 128, 256)) -> list[ConvergenceStudy]:
    """Every study on ``ns``; the operator studies share ``_operator_data``,
    freed before the advection study."""
    check_ladder(ns)
    dp, dv = mms_darcy(ns)
    shared = list(_operator_data(ns))
    ch, nut = mms_ch_operator(ns, shared), mms_nutrient_operator(ns, shared)
    del shared
    return [dp, dv, ch, nut, mms_advection(ns)]


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
