"""Darcy and Brinkman flow solves on the collocated grid.

Darcy: eliminate the velocity to get a pressure Poisson problem with a
homogeneous Dirichlet condition (the degenerate limit of the traction-free
closure) on the compact five-point system, and reconstruct
``v = (force - grad p) / nu``.  The type-II sine transform diagonalizes that
system exactly, so the pressure is one forward transform, a division by the
eigenvalues and one inverse transform; a residual check guards the result.

Brinkman: a preconditioned Uzawa iteration on the saddle problem.  The
velocity operator ``nu I + V`` collects the symmetric viscous form
``2 eta |Dv|^2 + lambda (div v)^2`` assembled from one-sided cell gradients,
so the traction-free wall is the natural (do-nothing) closure.  The
divergence constraint carries a momentum-interpolation correction in the
pressure (Rhie-Chow style): it suppresses collocated checkerboarding and
makes the vanishing-viscosity fixed point coincide with the Darcy
discretization exactly, up to solver tolerances.  The outer Uzawa iteration
updates the pressure with residual-minimizing (GCR) steps preconditioned by
the sine-basis symbol of the Schur operator, which keeps the sweep count
mesh-independent across viscosity levels; the inner velocity subproblems
reuse one sparse factorization of the fixed SPD momentum operator.  That
operator depends only on the viscosity fields, so its factorization is kept
across calls and rebuilt only when the fields (or the grid, ``nu`` or the
preconditioner scaling) change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn

from .grid import (DIRICHLET, NEUMANN, Field, Grid, cell_gradient,
                   cell_gradient_matrix, fv_diffusion_matrix, laplacian_symbol)


class FlowSolverError(RuntimeError):
    """Non-convergence of a flow solve."""


@dataclass
class FlowResult:
    v: np.ndarray            # (2, ny, nx)
    p: np.ndarray            # (ny, nx)
    div_residual: float
    momentum_residual: float
    iterations: int


@dataclass
class BrinkmanOptions:
    tol: float = 1e-9
    max_sweeps: int = 600
    rho: float = 1.0    # scaling of the model preconditioner


def _face_average_1d(n: int) -> sp.csr_matrix:
    """Cells to faces, arithmetic interior average, quadratic at the walls."""
    rows, cols, vals = [], [], []
    for f in range(1, n):
        rows += [f, f]
        cols += [f - 1, f]
        vals += [0.5, 0.5]
    rows += [0, 0, 0]
    cols += [0, 1, 2]
    vals += [2.0, -1.5, 0.5]
    rows += [n, n, n]
    cols += [n - 1, n - 2, n - 3]
    vals += [2.0, -1.5, 0.5]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, n))


def _face_divergence_1d(n: int, h: float) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for i in range(n):
        rows += [i, i]
        cols += [i, i + 1]
        vals += [-1.0 / h, 1.0 / h]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n + 1))


def _face_gradient_dirichlet_1d(n: int, h: float) -> sp.csr_matrix:
    """Compact face differences of a cell field with zero face values at walls."""
    rows, cols, vals = [], [], []
    for f in range(1, n):
        rows += [f, f]
        cols += [f - 1, f]
        vals += [-1.0 / h, 1.0 / h]
    rows += [0]; cols += [0]; vals += [2.0 / h]
    rows += [n]; cols += [n - 1]; vals += [-2.0 / h]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, n))


@lru_cache(maxsize=8)
class _FlowOperators:
    """Grid-bound sparse operators shared by both backends."""

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.ncells
        self.dx_e = cell_gradient_matrix(grid, 0, "extrapolate")
        self.dy_e = cell_gradient_matrix(grid, 1, "extrapolate")
        self.gx_d = cell_gradient_matrix(grid, 0, "flip")
        self.gy_d = cell_gradient_matrix(grid, 1, "flip")
        self.poisson_dir, _ = fv_diffusion_matrix(grid, DIRICHLET)
        self.poisson_dir_symbol = laplacian_symbol(grid, DIRICHLET)
        iy = sp.identity(grid.ny, format="csr")
        ix = sp.identity(grid.nx, format="csr")
        self.avg_xf = sp.kron(iy, _face_average_1d(grid.nx), format="csr")
        self.avg_yf = sp.kron(_face_average_1d(grid.ny), ix, format="csr")
        self.div_xf = sp.kron(iy, _face_divergence_1d(grid.nx, grid.hx),
                              format="csr")
        self.div_yf = sp.kron(_face_divergence_1d(grid.ny, grid.hy), ix,
                              format="csr")
        self.gradd_xf = sp.kron(iy, _face_gradient_dirichlet_1d(grid.nx, grid.hx),
                                format="csr")
        self.gradd_yf = sp.kron(_face_gradient_dirichlet_1d(grid.ny, grid.hy),
                                ix, format="csr")
        self.n = n

    def div_cells(self, v: np.ndarray) -> np.ndarray:
        g = self.grid
        return (self.dx_e @ v[0].ravel() + self.dy_e @ v[1].ravel()).reshape(g.shape)

    def grad_pressure(self, p: np.ndarray) -> np.ndarray:
        g = self.grid
        return np.stack([(self.gx_d @ p.ravel()).reshape(g.shape),
                         (self.gy_d @ p.ravel()).reshape(g.shape)])

    def rhie_chow_correction(self, dx_face: np.ndarray,
                             dy_face: np.ndarray) -> sp.csr_matrix:
        """Momentum-interpolated pressure stabilization of the constraint.

        Face fluxes ``(1/d_face) [avg(grad_c p).n - (dp/h)_face]`` with the
        momentum-diagonal weights; at vanishing viscosity (d -> nu) the
        stabilized constraint reduces exactly to the Darcy pressure system.
        """
        wx = sp.diags(1.0 / dx_face.ravel())
        wy = sp.diags(1.0 / dy_face.ravel())
        cx = self.div_xf @ wx @ (self.avg_xf @ self.gx_d - self.gradd_xf)
        cy = self.div_yf @ wy @ (self.avg_yf @ self.gy_d - self.gradd_yf)
        return (cx + cy).tocsr()


def _l2(a: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt((a**2).sum() * grid.cell_area))


def korteweg_force(phi: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
                   n_sigma: np.ndarray, grid: Grid) -> np.ndarray:
    """Capillary/chemical force ``(grad phi)^T mu + (grad sigma)^T N_sigma``."""
    if phi.shape[1:] != grid.shape or sigma.shape[1:] != grid.shape:
        raise ValueError("fields do not share the flow grid")
    fx = np.zeros(grid.shape)
    fy = np.zeros(grid.shape)
    for i in range(phi.shape[0]):
        gx, gy = cell_gradient(Field(phi[i], NEUMANN, grid))
        fx += gx * mu[i]
        fy += gy * mu[i]
    for j in range(sigma.shape[0]):
        gx, gy = cell_gradient(Field(sigma[j], NEUMANN, grid))
        fx += gx * n_sigma[j]
        fy += gy * n_sigma[j]
    return np.stack([fx, fy])


def solve_darcy(force: np.ndarray, s_v: np.ndarray, nu: float, grid: Grid,
                tol: float = 1e-9) -> FlowResult:
    """Pressure-Poisson Darcy solve; see the module docstring.

    ``tol`` bounds the normwise backward error of the pressure,
    ``|A p - rhs| <= tol (|A| |p| + |rhs|)`` in the 2-norm; a larger error
    raises ``FlowSolverError``.  The ``|A| |p|`` term is the rounding floor
    of evaluating ``A p`` itself, which on fine grids exceeds ``1e-12 |rhs|``
    even for the exact discrete solution.
    """
    if nu <= 0:
        raise ValueError("permeability coefficient nu must be positive")
    ops = _FlowOperators(grid)
    rhs = nu * s_v - ops.div_cells(force)
    symbol = ops.poisson_dir_symbol
    p = idstn(dstn(rhs, type=2, norm="ortho") / symbol, type=2, norm="ortho")
    defect = float(np.linalg.norm(ops.poisson_dir @ p.ravel() - rhs.ravel()))
    bound = tol * (float(symbol.max()) * float(np.linalg.norm(p))
                   + float(np.linalg.norm(rhs)))
    if not defect <= bound:
        raise FlowSolverError(
            f"pressure solve residual {defect:.3e} exceeds {bound:.3e}")
    v = (force - ops.grad_pressure(p)) / nu
    div_res = _l2(ops.div_cells(v) - s_v, grid)
    mom = _l2(ops.grad_pressure(p) + nu * v - force, grid)
    return FlowResult(v=v, p=p, div_residual=div_res,
                      momentum_residual=mom, iterations=1)


def darcy_residual(v: np.ndarray, p: np.ndarray, force: np.ndarray,
                   nu: float, grid: Grid) -> float:
    """Distance to the Darcy law, ``|| grad p + nu v - force ||_2``."""
    ops = _FlowOperators(grid)
    return _l2(ops.grad_pressure(p) + nu * v - force, grid)


def _velocity_operator(grid: Grid, eta: np.ndarray, lam: np.ndarray,
                       nu: float) -> sp.csr_matrix:
    """Symmetric PSD viscous form plus nu I on the stacked (u, v) vector."""
    ops = _FlowOperators(grid)
    de = sp.diags(eta.ravel())
    dl = sp.diags(lam.ravel())
    dx, dy = ops.dx_e, ops.dy_e
    k_uu = 2.0 * dx.T @ de @ dx + dy.T @ de @ dy + dx.T @ dl @ dx
    k_vv = 2.0 * dy.T @ de @ dy + dx.T @ de @ dx + dy.T @ dl @ dy
    k_uv = dy.T @ de @ dx + dx.T @ dl @ dy
    k_vu = dx.T @ de @ dy + dy.T @ dl @ dx
    k = sp.bmat([[k_uu, k_uv], [k_vu, k_vv]], format="csr")
    return (k + nu * sp.identity(2 * grid.ncells, format="csr")).tocsr()


def _schur_model_eigenvalues(grid: Grid, eta_hat: float, nu: float) -> np.ndarray:
    """Interior-symbol eigenvalues of the pressure Schur operator.

    With the momentum-diagonal Rhie-Chow weights both the true Schur part and
    the stabilization behave like ``lc / (nu + eta_hat lc)`` in the sine
    basis, ``lc`` being the compact Dirichlet-Laplacian eigenvalues.
    Boundary rows deviate from the symbol; the outer minimization absorbs
    that.
    """
    lc = laplacian_symbol(grid, DIRICHLET)
    return lc / (nu + eta_hat * lc)


class _BrinkmanSystem(NamedTuple):
    """The right-hand-side independent part of a Brinkman solve."""

    K: sp.csr_matrix                 # momentum operator nu I + V(eta, lam)
    k_lu: spla.SuperLU               # its sparse LU
    correction: sp.csr_matrix        # Rhie-Chow stabilization of the constraint
    model: np.ndarray                # Schur preconditioner eigenvalues


# ((grid, eta, lam, nu, rho), system) of the last build, or None
_brinkman_entry: tuple | None = None


def _brinkman_system(grid: Grid, eta: np.ndarray, lam: np.ndarray, nu: float,
                     rho: float) -> _BrinkmanSystem:
    """Build the Brinkman system, or reuse the last one for equal inputs.

    One entry is kept, keyed on copies of ``eta`` and ``lam`` and compared
    exactly, so an unmodulated viscosity is factorized once per run and a
    modulated one is rebuilt every call.  A miss drops the entry before
    factorizing, so at most one cached LU is alive.  The entry is a single
    tuple swapped by one assignment: a concurrent caller sees the old entry
    or the new one whole, so a race costs a rebuild, never a wrong operator.
    """
    global _brinkman_entry
    entry = _brinkman_entry
    if entry is not None:
        (grid0, eta0, lam0, nu0, rho0), system = entry
        if (grid0 == grid and nu0 == nu and rho0 == rho
                and np.array_equal(eta0, eta) and np.array_equal(lam0, lam)):
            return system
    # the locals hold the old LU too; release it before the new one exists
    _brinkman_entry = entry = system = None
    ops = _FlowOperators(grid)
    n = grid.ncells
    K = _velocity_operator(grid, eta, lam, nu)
    k_lu = spla.splu(K.tocsc())
    kdiag = K.diagonal()
    # deviates from the Darcy weight nu only quadratically in the viscous
    # diagonal, so the vanishing-viscosity fixed point stays the Darcy solve
    cx = np.maximum((ops.avg_xf @ kdiag[:n]) - nu, 0.0)
    cy = np.maximum((ops.avg_yf @ kdiag[n:]) - nu, 0.0)
    dx_face = nu + cx**2 / (nu + cx)
    dy_face = nu + cy**2 / (nu + cy)
    correction = ops.rhie_chow_correction(dx_face, dy_face)
    eta_hat = float(2.0 * eta.mean() + lam.mean())
    model = _schur_model_eigenvalues(grid, eta_hat, nu) / rho
    system = _BrinkmanSystem(K, k_lu, correction, model)
    _brinkman_entry = ((grid, eta.copy(), lam.copy(), nu, rho), system)
    return system


def solve_brinkman(force: np.ndarray, s_v: np.ndarray, eta: np.ndarray,
                   lam: np.ndarray, nu: float, grid: Grid,
                   opts: BrinkmanOptions | None = None) -> FlowResult:
    """Uzawa-preconditioned Brinkman solve; see the module docstring."""
    opts = opts or BrinkmanOptions()
    eta = np.broadcast_to(np.asarray(eta, dtype=float), grid.shape)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), grid.shape)
    if eta.min() <= 0:
        raise ValueError("shear viscosity must be positive for the Brinkman solve")
    ops = _FlowOperators(grid)
    n = grid.ncells
    K, k_lu, correction, model = _brinkman_system(grid, eta, lam, nu, opts.rho)
    f_flat = force.reshape(-1)

    def precondition(r: np.ndarray) -> np.ndarray:
        coef = dstn(r.reshape(grid.shape), type=2, norm="ortho")
        return idstn(coef / model, type=2, norm="ortho").ravel()

    def velocity_of(p: np.ndarray) -> np.ndarray:
        return k_lu.solve(f_flat - np.concatenate([ops.gx_d @ p, ops.gy_d @ p]))

    def schur_residual(p: np.ndarray, v_flat: np.ndarray) -> np.ndarray:
        v = v_flat.reshape(2, grid.ny, grid.nx)
        return s_v.ravel() - ops.div_cells(v).ravel() - correction @ p

    def schur_apply(z: np.ndarray):
        """S z for S p := -div_F K^-1 G p + C p, with the velocity increment."""
        dv = k_lu.solve(-np.concatenate([ops.gx_d @ z, ops.gy_d @ z]))
        sz = ops.div_cells(dv.reshape(2, grid.ny, grid.nx)).ravel() \
            + correction @ z
        return sz, dv

    scale = max(_l2(force, grid) / nu, _l2(s_v, grid), 1e-300)
    p = np.zeros(n)
    v_flat = velocity_of(p)
    r = schur_residual(p, v_flat)
    rnorm = float(np.sqrt((r**2).sum() * grid.cell_area))
    history = [rnorm]
    dirs: list[tuple[np.ndarray, np.ndarray, np.ndarray, float]] = []
    sweeps = 0
    # residual-minimizing pressure updates (GCR) on the Schur system
    while rnorm > opts.tol * scale:
        sweeps += 1
        if sweeps > opts.max_sweeps:
            raise FlowSolverError(
                f"Uzawa iteration cap reached ({opts.max_sweeps} sweeps, "
                f"residual {rnorm:.3e})")
        if len(history) > 50 and history[-1] > 0.999**50 * history[-51]:
            raise FlowSolverError(
                f"Uzawa stagnation: residual {rnorm:.3e} after {sweeps} sweeps")
        z = precondition(r)
        w, dv = schur_apply(z)
        for zj, wj, dvj, n2j in dirs:
            beta = float(w @ wj) / n2j
            z = z - beta * zj
            w = w - beta * wj
            dv = dv - beta * dvj
        norm2 = float(w @ w)
        if norm2 <= 0.0 or not np.isfinite(norm2):
            raise FlowSolverError("Uzawa breakdown: degenerate search direction")
        alpha = float(r @ w) / norm2
        p = p + alpha * z
        v_flat = v_flat + alpha * dv
        r = r - alpha * w
        rnorm = float(np.sqrt((r**2).sum() * grid.cell_area))
        history.append(rnorm)
        dirs.append((z, w, dv, norm2))
        if len(dirs) >= 40:
            dirs.clear()  # periodic restart; sliding truncation can cycle
    v = v_flat.reshape(2, grid.ny, grid.nx)
    div_res = _l2(ops.div_cells(v) - s_v, grid)
    mom = (K @ v_flat + np.concatenate([ops.gx_d @ p, ops.gy_d @ p])
           - f_flat).reshape(2, grid.ny, grid.nx)
    return FlowResult(v=v, p=p.reshape(grid.shape), div_residual=div_res,
                      momentum_residual=_l2(mom, grid),
                      iterations=max(sweeps, 1))
