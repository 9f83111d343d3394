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
the sine-basis symbol of the Schur operator.  The symbol ignores the
traction-free wall rows, so the sweep count grows with the grid at finite
viscosity: on a darcy-limit state at tolerance 1e-9 a cold start (zero
pressure) takes 11, 17 and 26 sweeps at 32x32, 64x64 and 128x128 for
``eta = lambda = 1e-2``, and 4-5 at ``1e-4``.  The time stepper starts each
solve from the previous step's pressure, which cuts the count to 8, 13 and
21 on the steps after the first.  The Schur operator is fixed for a run, so
the stepper also keeps the search directions found so far (``UzawaSpace``):
a solve first removes the part of its residual that lies in their span and
sweeps only on the rest.  Over a darcy-limit run the counts then fall to
11, 7, 7, 4, 2, 1, 1, 1 at 32x32 and 17, 13, 12, 7, 4, 2, 2, 1 at 64x64,
then stay at 1-2; at 128x128 they fall to 2-4 by the eighth step and
return to about 20 for a few steps whenever the 80 kept directions fill and
restart.  The inner velocity subproblems
reuse one sparse factorization of the fixed SPD momentum operator, a
symmetric-mode LU (minimum-degree ordering of the symmetric pattern,
diagonal pivots) with about two thirds of the fill of a general
column-ordered LU.  That operator depends only on the viscosity fields, so
the caller's ``UzawaSpace`` keeps its factorization next to the directions
and rebuilds both only when the fields, the grid or ``nu`` change: one LU
per live stepper, and steppers with different viscosities never evict each
other.  A call without a space builds its own system, so it is cold and
shares nothing with concurrent calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn

from .grid import (DIRICHLET, EXTRAPOLATE, NEUMANN, Field, Grid,
                   cell_gradient, cell_gradient_matrix, face_average_matrix,
                   face_divergence_matrix, face_gradient_matrix,
                   fv_diffusion_matrix, l2_norm, laplacian_symbol)


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


MAX_SWEEPS = 600  # Uzawa sweeps of one Brinkman solve
MAX_DIRECTIONS = 80  # Uzawa search directions kept before a restart


class _FlowOperators:
    """Grid-bound sparse operators shared by both backends."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.dx_e = cell_gradient_matrix(grid, 0, EXTRAPOLATE)
        self.dy_e = cell_gradient_matrix(grid, 1, EXTRAPOLATE)
        self.gx_d = cell_gradient_matrix(grid, 0, DIRICHLET)
        self.gy_d = cell_gradient_matrix(grid, 1, DIRICHLET)
        self.poisson_dir, _ = fv_diffusion_matrix(grid, DIRICHLET)
        self.poisson_dir_symbol = laplacian_symbol(grid, DIRICHLET)
        self.avg_xf = face_average_matrix(grid, 0, EXTRAPOLATE)
        self.avg_yf = face_average_matrix(grid, 1, EXTRAPOLATE)
        self.div_xf = face_divergence_matrix(grid, 0)
        self.div_yf = face_divergence_matrix(grid, 1)
        self.gradd_xf = face_gradient_matrix(grid, 0, DIRICHLET)
        self.gradd_yf = face_gradient_matrix(grid, 1, DIRICHLET)

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


@lru_cache(maxsize=8)
def _flow_operators(grid: Grid) -> _FlowOperators:
    return _FlowOperators(grid)


def korteweg_force(phi: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
                   n_sigma: np.ndarray, grid: Grid) -> np.ndarray:
    """Capillary/chemical force ``(grad phi)^T mu + (grad sigma)^T N_sigma``."""
    if phi.shape[1:] != grid.shape or sigma.shape[1:] != grid.shape:
        raise ValueError("fields do not share the flow grid")
    fx = np.zeros(grid.shape)
    fy = np.zeros(grid.shape)
    for q, w in zip([*phi, *sigma], [*mu, *n_sigma]):
        gx, gy = cell_gradient(Field(q, NEUMANN, grid))
        fx += gx * w
        fy += gy * w
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
    ops = _flow_operators(grid)
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
    div_res = l2_norm(ops.div_cells(v) - s_v, grid)
    return FlowResult(v=v, p=p, div_residual=div_res,
                      momentum_residual=darcy_residual(v, p, force, nu, grid),
                      iterations=1)


def darcy_residual(v: np.ndarray, p: np.ndarray, force: np.ndarray,
                   nu: float, grid: Grid) -> float:
    """Distance to the Darcy law, ``|| grad p + nu v - force ||_2``."""
    ops = _flow_operators(grid)
    return l2_norm(ops.grad_pressure(p) + nu * v - force, grid)


def _velocity_operator(grid: Grid, eta: np.ndarray, lam: np.ndarray,
                       nu: float) -> sp.csr_matrix:
    """Symmetric PSD viscous form plus nu I on the stacked (u, v) vector."""
    ops = _flow_operators(grid)
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


def _brinkman_system(grid: Grid, eta: np.ndarray, lam: np.ndarray,
                     nu: float) -> _BrinkmanSystem:
    """Build everything a Brinkman solve needs apart from its right-hand side."""
    ops = _flow_operators(grid)
    n = grid.ncells
    K = _velocity_operator(grid, eta, lam, nu)
    # K = nu I + V with V symmetric PSD and nu > 0 is SPD: diagonal pivots
    # are stable, so a symmetric ordering of K + K^T with no row pivoting
    # keeps the fill of a Cholesky-like factorization
    k_lu = spla.splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    kdiag = K.diagonal()
    # deviates from the Darcy weight nu only quadratically in the viscous
    # diagonal, so the vanishing-viscosity fixed point stays the Darcy solve
    cx = np.maximum((ops.avg_xf @ kdiag[:n]) - nu, 0.0)
    cy = np.maximum((ops.avg_yf @ kdiag[n:]) - nu, 0.0)
    dx_face = nu + cx**2 / (nu + cx)
    dy_face = nu + cy**2 / (nu + cy)
    correction = ops.rhie_chow_correction(dx_face, dy_face)
    eta_hat = float(2.0 * eta.mean() + lam.mean())
    model = _schur_model_eigenvalues(grid, eta_hat, nu)
    return _BrinkmanSystem(K, k_lu, correction, model)


class UzawaSpace:
    """What a Brinkman solve reuses across solves: its system and directions.

    The factorized system is kept for the key ``(grid, eta, lam, nu)``, with
    copies of ``eta`` and ``lam`` compared exactly, so a run's constant
    viscosity is factorized once and an in-place change rebuilds.  Rows
    ``Z[:k]`` are pressure directions and ``W[:k] = S Z[:k]`` their images
    under the Schur operator ``S`` of that system; ``W[:k]`` is orthonormal.
    ``S`` depends only on the key, so directions found for one right-hand
    side stay exact for every later one: a solve first removes the part of
    its initial residual that lies in ``span W`` (no velocity solves) and
    sweeps only on the rest, adding each new direction to the space.  Owned
    by one caller at a time.
    """

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.system: _BrinkmanSystem | None = None
        self.Z = self.W = np.empty((0, 0))
        self.k = 0

    def clear(self) -> None:
        self.k = 0

    def system_for(self, grid: Grid, eta: np.ndarray, lam: np.ndarray,
                   nu: float) -> _BrinkmanSystem:
        """The kept system if the key matches, else a new one on an empty space."""
        if self.key is not None:
            grid0, eta0, lam0, nu0 = self.key
            if (grid0 == grid and nu0 == nu and np.array_equal(eta0, eta)
                    and np.array_equal(lam0, lam)):
                return self.system
        # release the old LU before the new one exists
        self.key = self.system = None
        self.Z = np.empty((MAX_DIRECTIONS, grid.ncells))
        self.W = np.empty((MAX_DIRECTIONS, grid.ncells))
        self.k = 0
        self.system = _brinkman_system(grid, eta, lam, nu)
        self.key = (grid, eta.copy(), lam.copy(), nu)
        return self.system


def solve_brinkman(force: np.ndarray, s_v: np.ndarray, eta: np.ndarray,
                   lam: np.ndarray, nu: float, grid: Grid,
                   opts: BrinkmanOptions | None = None,
                   p0: np.ndarray | None = None,
                   space: UzawaSpace | None = None) -> FlowResult:
    """Uzawa-preconditioned Brinkman solve; see the module docstring.

    ``p0`` is an initial pressure, shaped like the grid or flat; without it
    the iteration starts from zero.  A close guess, such as the previous
    step's pressure, saves sweeps; the result agrees with the cold solve to
    the tolerance.  ``space`` keeps the factorized system and the search
    directions of earlier solves and receives this solve's; a solve that
    raises leaves its directions empty.  Without it the call builds and
    factorizes its own system, so it is cold and shares nothing.  Viscosities
    outside assumption A3 raise ``ValueError``, non-finite ``force`` or ``s_v``
    raises ``FlowSolverError`` and zero data returns the exact ``v = 0``,
    ``p = 0``; none of these builds anything.
    """
    if nu <= 0:
        raise ValueError("permeability coefficient nu must be positive")
    opts = opts or BrinkmanOptions()
    if p0 is not None:
        p0 = np.asarray(p0, dtype=float)
        if p0.shape not in (grid.shape, (grid.ncells,)):
            raise ValueError(f"initial pressure of shape {p0.shape} does not "
                             f"fit the {grid.ny}x{grid.nx} grid")
        if not np.isfinite(p0).all():
            raise ValueError("initial pressure is not finite")
    eta = np.broadcast_to(np.asarray(eta, dtype=float), grid.shape)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), grid.shape)
    # assumption A3: finite viscosities with eta > 0 and lam >= 0
    if not (np.isfinite(eta).all() and eta.min() > 0):
        raise ValueError("shear viscosity must be finite and positive")
    if not (np.isfinite(lam).all() and lam.min() >= 0):
        raise ValueError("bulk viscosity must be finite and nonnegative")
    norms = (l2_norm(force, grid) / nu, l2_norm(s_v, grid))
    if not np.isfinite(norms).all():
        raise FlowSolverError("Brinkman force or volume source is not finite")
    scale = max(norms)
    if scale == 0.0:
        # the exact solution; no nonzero guess meets a tolerance relative to
        # vanishing data
        return FlowResult(v=np.zeros((2,) + grid.shape), p=np.zeros(grid.shape),
                          div_residual=0.0, momentum_residual=0.0, iterations=1)
    ops = _flow_operators(grid)
    n = grid.ncells
    space = space if space is not None else UzawaSpace()
    K, k_lu, correction, model = space.system_for(grid, eta, lam, nu)
    f_flat = force.reshape(-1)

    def precondition(r: np.ndarray) -> np.ndarray:
        coef = dstn(r.reshape(grid.shape), type=2, norm="ortho")
        return idstn(coef / model, type=2, norm="ortho").ravel()

    def velocity_of(p: np.ndarray) -> np.ndarray:
        return k_lu.solve(f_flat - np.concatenate([ops.gx_d @ p, ops.gy_d @ p]))

    def schur_apply(z: np.ndarray) -> np.ndarray:
        """S z for S p := -div_F K^-1 G p + C p."""
        dv = k_lu.solve(-np.concatenate([ops.gx_d @ z, ops.gy_d @ z]))
        return ops.div_cells(dv.reshape(2, grid.ny, grid.nx)).ravel() \
            + correction @ z

    p = np.zeros(n) if p0 is None else p0.ravel().copy()
    v = velocity_of(p).reshape(2, grid.ny, grid.nx)
    r = s_v.ravel() - ops.div_cells(v).ravel() - correction @ p
    if space.k:
        # least-squares correction over the kept directions
        c = space.W[:space.k] @ r
        p += c @ space.Z[:space.k]
        r -= c @ space.W[:space.k]
    rnorm = l2_norm(r, grid)
    history = [rnorm]
    sweeps = 0
    try:
        # residual-minimizing pressure updates (GCR) on the Schur system
        while rnorm > opts.tol * scale:
            sweeps += 1
            if sweeps > MAX_SWEEPS:
                raise FlowSolverError(
                    f"Uzawa iteration cap reached ({MAX_SWEEPS} sweeps, "
                    f"residual {rnorm:.3e})")
            if len(history) > 50 and history[-1] > 0.999**50 * history[-51]:
                raise FlowSolverError(
                    f"Uzawa stagnation: residual {rnorm:.3e} after {sweeps} sweeps")
            z = precondition(r)
            w = schur_apply(z)
            if space.k == MAX_DIRECTIONS:
                space.k = 0  # periodic restart; sliding truncation can cycle
            k = space.k
            for _ in range(2):  # block Gram-Schmidt, repeated for orthogonality
                c = space.W[:k] @ w
                w -= c @ space.W[:k]
                z -= c @ space.Z[:k]
            norm = float(np.linalg.norm(w))
            if not 0.0 < norm < np.inf:
                raise FlowSolverError("Uzawa breakdown: degenerate search direction")
            space.Z[k] = z / norm
            space.W[k] = w / norm
            space.k = k + 1
            alpha = float(r @ space.W[k])
            p += alpha * space.Z[k]
            r -= alpha * space.W[k]
            rnorm = l2_norm(r, grid)
            history.append(rnorm)
    except BaseException:
        # a retry after a failure starts from nothing the failed solve left
        space.clear()
        raise
    v_flat = velocity_of(p)
    v = v_flat.reshape(2, grid.ny, grid.nx)
    div_res = l2_norm(ops.div_cells(v) - s_v, grid)
    mom = (K @ v_flat + np.concatenate([ops.gx_d @ p, ops.gy_d @ p])
           - f_flat).reshape(2, grid.ny, grid.nx)
    return FlowResult(v=v, p=p.reshape(grid.shape), div_residual=div_res,
                      momentum_residual=l2_norm(mom, grid),
                      iterations=max(sweeps, 1))
