"""Darcy and Brinkman flow solves on the collocated grid.

Darcy: eliminate the velocity to get a pressure Poisson problem with a
homogeneous Dirichlet condition (the degenerate limit of the traction-free
closure) on the compact five-point system, and reconstruct ``v = (force - grad
p) / nu``.  The Dirichlet ``grid.eigenbasis``, the orthonormal DST (two dense
products up to ``grid.DENSE_BASIS_MAX`` cells an axis, scipy's transform
above), diagonalizes that system exactly: the pressure is one forward change
of basis, a division by the eigenvalues and one inverse change of basis; a
residual check guards the result.

Brinkman: a preconditioned Uzawa iteration on the saddle problem.  The
velocity operator ``nu I + V`` collects the symmetric viscous form
``2 eta |Dv|^2 + lambda (div v)^2`` assembled from one-sided cell gradients,
so the traction-free wall is the natural (do-nothing) closure.  The
divergence constraint carries a momentum-interpolation correction in the
pressure (Rhie-Chow style): it suppresses collocated checkerboarding and
makes the vanishing-viscosity fixed point coincide with the Darcy
discretization exactly, up to solver tolerances.  The outer Uzawa iteration
updates the pressure with residual-minimizing (GCR) steps preconditioned in
that basis.  Away from the walls the preconditioner divides by the
symbol of the collocated Schur operator, the stabilization included; in the
four cell layers next to each wall, where the one-sided traction-free
rows break that symbol, it uses the compact Cahouet-Chabard model
``lc / (nu + eta_hat lc)`` (``_schur_model``).  Since the vanishing-viscosity
fixed point is the Darcy discretization, the Darcy pressure ``p_D`` of the
solve's own data (one sine-transform solve) is the leading term of its
pressure, and each solve starts from ``p_D`` plus the offset ``p - p_D``
that the last converged solve on its ``UzawaSpace`` ended with (zero when
there is none).  That start is the previous pressure plus the increment the
Darcy solve predicts; only the slowly varying viscous correction is carried
over.  The count still grows with the grid at finite viscosity: on the
darcy-limit initial state at ``FLOW_TOL`` (1e-9) a cold start (the Darcy
pressure) takes 8, 11 and 17 sweeps at 32x32, 64x64 and 128x128 for
``eta = lambda = 1e-2``, and 2-3 at ``1e-4``.  On a darcy-limit run the
start alone cuts the count to 5, 5-6 and 6-7 on the steps after the first.
The Schur operator is fixed for a run, so the stepper also keeps the search
directions found so far (``UzawaSpace``): a solve first removes the part of
its residual that lies in their span and sweeps only on the rest.  Over
24 darcy-limit steps the counts then fall to 8, 5, 4, 2 and then 0-1 at
32x32 (10 steps take none: the start meets the tolerance) and to 11, 6,
5, 2 and then 0-2 at 64x64; at 128x128 they fall to 17, 9, 7, 4 and then
2-3.  When the 80 kept directions fill and restart (during step 22 there)
the offset is kept: the step after the restart takes 6 sweeps, not the 17
of a cold start, and the next ones 2-4.  Each sweep orthogonalizes its
new direction against the kept ones in one block Gram-Schmidt pass, and
in a second one only when the first cancels, leaving less than
``1/sqrt 2`` of the direction's norm; over darcy-limit runs at 32x32 and
64x64 no sweep cancels.  The inner
velocity subproblems reuse one sparse factorization of the fixed SPD
momentum operator, a symmetric-mode LU (minimum-degree ordering of
the symmetric pattern, diagonal pivots) with about two thirds of the fill of
a general column-ordered LU.  It factors the operator with each cell's two
unknowns adjacent, ``u_0, v_0, u_1, v_1, ...``, and its solves take and
return the stacked ``(u, v)`` vector; on the darcy-limit preset its fill
is 0.993M at 64x64 and 4.89M at 128x128.  The viscosities are the numbers
``eta`` and ``lambda`` (assumption A3 asks only for their bounds), so that
operator depends only on them, the grid and ``nu``.  The caller's
``UzawaSpace`` keeps its factorization next to the directions and rebuilds
both only when one of these changes: one LU per live stepper, and steppers
with different viscosities never evict each other.  A call without a space
builds a space of its own, so it is cold and shares nothing with concurrent
calls.

Accuracy at the traction-free wall, measured by self-convergence (each
grid against the 2x2 average of the next finer one; unit square, force
``(sin 2 pi x cos pi y + x y, cos 3x e^y - 1/2)``, ``s_v = 0``, ``nu = 1``,
tolerance 1e-11, 32x32 to 256x256): the velocity converges at order 1.5
then 1.2 in L2 at ``eta = lambda = 1`` and 1.4 then 1.2 at 1e-2, not 2,
and the interior pressure at the same rate, so the wall error reaches the
interior.  The pressure in the two cell layers next to the walls stops
converging after 64x64 at both viscosities (max error 3.5e-2, 1.8e-2,
2.0e-2 at ``eta = 1``).  In a coupled run (zero-source preset, 6 steps)
``div_residual`` falls at order about 0.5 against about 1 for Darcy.  The
one-sided viscous rows and the Dirichlet pressure ghost, which is the
Darcy limit's wall condition and not the traction condition at finite
``eta``, are the likely cause.

Each solve reports ``dissipation``, the flow's term of the energy law:
``v^T K v hx hy`` for the momentum operator ``K`` it solved, that is
``nu |v|^2 + 2 eta |Dv|^2 + lambda (div v)^2`` (``K = nu I`` for Darcy).
The Brinkman solve forms it as ``v . (f - G p)``, with the right-hand side
of its final velocity solve in place of ``K v``.

What is kept: per grid, a small cache holds only the operators every solve
reads (``_FlowOperators``): the cell divergence matrices, one stacked
pressure-gradient matrix and the Dirichlet pressure Laplacian with its
eigenbasis.  Everything else a Brinkman solve reads has one owner, its
``UzawaSpace``: for one key ``(grid, eta, lam, nu)`` the space builds and
keeps the LU of ``K``, the Rhie-Chow correction, the Schur model symbols
with their wall band and the Dirichlet basis, next to the search
directions and the offset.  It drops ``K`` itself, which no solve reads,
and the face average, face divergence and face gradient matrices that the
correction is assembled from, so a Darcy solve never builds them.  The
Korteweg force applies ``grid.cell_gradient`` by slices, or takes the
step's stack of those gradients, and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import (DIRICHLET, EXTRAPOLATE, Grid, cell_gradient,
                   cell_gradient_matrix, eigenbasis,
                   face_average_matrix, face_divergence_matrix,
                   face_gradient_matrix, fv_diffusion_matrix, l2_norm)


class FlowSolverError(RuntimeError):
    """Non-convergence of a flow solve."""


@dataclass
class FlowResult:
    v: np.ndarray            # (2, ny, nx)
    p: np.ndarray            # (ny, nx)
    div_residual: float
    dissipation: float       # flow part of the energy law, v^T K v hx hy
    iterations: int


# The relative residual both solves stop at.  The Darcy solve is direct, so
# for it the tolerance only guards the transform's result; the Brinkman
# Uzawa iteration runs until its constraint residual is this fraction of
# the data.  On the darcy-limit state after 3 steps, a solve to 1e-9 is
# within 2.2e-10, 1.1e-9 and 2.3e-9 (relative L2 velocity) of one to 1e-13
# at 32x32, 64x64 and 128x128, in 8, 11 and 17 sweeps against 13, 20 and
# 33, and its ``div_residual`` agrees in the first ten digits.
FLOW_TOL = 1e-9


@dataclass
class BrinkmanOptions:
    tol: float = FLOW_TOL


MAX_SWEEPS = 600  # Uzawa sweeps of one Brinkman solve
MAX_DIRECTIONS = 80  # Uzawa search directions kept before a restart
MAX_CONDITION = 1e14  # largest condition bound of K that is solved


class _FlowOperators:
    """Grid-bound sparse operators shared by both backends, cached per grid.

    Only what every solve reads is kept: the extrapolated cell divergence
    (``dx_e``, ``dy_e``), the Dirichlet pressure gradient ``grad`` (the x
    rows stacked over the y rows, ``(2 ncells, ncells)``, so one product
    gives the stacked ``(u, v)`` vector) and the Dirichlet pressure
    Laplacian with its eigenbasis.  The face matrices of the Rhie-Chow
    stabilization are built by ``_rhie_chow`` when a ``UzawaSpace`` builds
    its system, and dropped once the correction is made.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.dx_e = cell_gradient_matrix(grid, 0, EXTRAPOLATE)
        self.dy_e = cell_gradient_matrix(grid, 1, EXTRAPOLATE)
        self.grad = sp.vstack([cell_gradient_matrix(grid, 0, DIRICHLET),
                               cell_gradient_matrix(grid, 1, DIRICHLET)],
                              format="csr")
        self.poisson_dir, _ = fv_diffusion_matrix(grid, DIRICHLET)
        b = self.pressure_basis = eigenbasis(grid, DIRICHLET)
        self.poisson_dir_symbol = b.lam_y[:, None] + b.lam_x[None, :]

    def div_cells(self, v: np.ndarray) -> np.ndarray:
        g = self.grid
        return (self.dx_e @ v[0].ravel() + self.dy_e @ v[1].ravel()).reshape(g.shape)

    def grad_pressure(self, p: np.ndarray) -> np.ndarray:
        return (self.grad @ p.ravel()).reshape((2,) + self.grid.shape)


@lru_cache(maxsize=8)
def _flow_operators(grid: Grid) -> _FlowOperators:
    return _FlowOperators(grid)


def korteweg_force(phi: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
                   n_sigma: np.ndarray, grid: Grid,
                   grads: np.ndarray | None = None) -> np.ndarray:
    """Capillary/chemical force ``(grad phi)^T mu + (grad sigma)^T N_sigma``
    with ``grid.cell_gradient``, the gradient the transport uses.

    ``grads`` stacks ``cell_gradient`` of ``phi_1, ..., sigma_1`` as ``(L +
    M, 2, ny, nx)`` when the caller has them; they are read, not written,
    and give the same bits as the gradients formed here.
    """
    if phi.shape[1:] != grid.shape or sigma.shape[1:] != grid.shape:
        raise ValueError("fields do not share the flow grid")
    if grads is None:
        grads = [cell_gradient(q, grid) for q in [*phi, *sigma]]
    force = np.zeros((2,) + grid.shape)
    # one work array for every field's term: fresh ones cost more than the
    # products at 128^2
    term = np.empty_like(force)
    for grad, w in zip(grads, [*mu, *n_sigma]):
        force += np.multiply(grad, w, out=term)
    return force


def _darcy_pressure(force: np.ndarray, s_v: np.ndarray, nu: float,
                    grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The Darcy pressure of ``(force, s_v)`` and its Poisson right-hand side.

    One solve of ``A p = nu s_v - div force`` in the eigenbasis of the
    Dirichlet pressure Laplacian ``A``; both are ``(ny, nx)`` arrays.
    """
    ops = _flow_operators(grid)
    rhs = ops.div_cells(force)
    np.subtract(nu * s_v, rhs, out=rhs)
    coef = ops.pressure_basis.forward(rhs)
    p = ops.pressure_basis.inverse(
        np.divide(coef, ops.poisson_dir_symbol, out=coef), overwrite_x=True)
    return p, rhs


def solve_darcy(force: np.ndarray, s_v: np.ndarray, nu: float, grid: Grid,
                tol: float = FLOW_TOL) -> FlowResult:
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
    p, rhs = _darcy_pressure(force, s_v, nu, grid)
    defect = ops.poisson_dir @ p.ravel()
    defect = float(np.linalg.norm(np.subtract(defect, rhs.ravel(), out=defect)))
    bound = tol * (float(ops.poisson_dir_symbol.max())
                   * float(np.linalg.norm(p)) + float(np.linalg.norm(rhs)))
    if not defect <= bound:
        raise FlowSolverError(
            f"pressure solve residual {defect:.3e} exceeds {bound:.3e}")
    v = ops.grad_pressure(p)
    np.divide(np.subtract(force, v, out=v), nu, out=v)
    div = ops.div_cells(v)
    div_res = l2_norm(np.subtract(div, s_v, out=div), grid)
    return FlowResult(v=v, p=p, div_residual=div_res,
                      dissipation=nu * float((v**2).sum()) * grid.cell_area,
                      iterations=1)


def darcy_residual(v: np.ndarray, p: np.ndarray, force: np.ndarray,
                   nu: float, grid: Grid) -> float:
    """Distance to the Darcy law, ``|| grad p + nu v - force ||_2``."""
    ops = _flow_operators(grid)
    return l2_norm(ops.grad_pressure(p) + nu * v - force, grid)


def _velocity_operator(grid: Grid, eta: float, lam: float,
                       nu: float) -> sp.csr_matrix:
    """Symmetric PSD viscous form plus nu I on the stacked (u, v) vector."""
    ops = _flow_operators(grid)
    dx, dy = ops.dx_e, ops.dy_e
    xx, yy, xy = dx.T @ dx, dy.T @ dy, dx.T @ dy
    k_uu = 2.0 * eta * xx + eta * yy + lam * xx
    k_vv = 2.0 * eta * yy + eta * xx + lam * yy
    k_uv = eta * xy.T + lam * xy
    k_vu = eta * xy + lam * xy.T
    k = sp.bmat([[k_uu, k_uv], [k_vu, k_vv]], format="csr")
    return (k + nu * sp.identity(2 * grid.ncells, format="csr")).tocsr()


def _face_weight(c, nu: float):
    """Rhie-Chow face weight ``nu + c^2 / (nu + c)`` of a viscous diagonal ``c``.

    It deviates from the Darcy weight ``nu`` only quadratically in ``c``, so
    the vanishing-viscosity fixed point stays the Darcy solve.  It is formed
    as ``c (c / (nu + c))``, which stays finite for every finite ``c``.
    """
    return nu + c * (c / (nu + c))


def _rhie_chow(grid: Grid, kdiag: np.ndarray, nu: float) -> sp.csr_matrix:
    """Momentum-interpolated pressure stabilization of the constraint.

    Face fluxes ``(1/d_face) [avg(grad_c p).n - (dp/h)_face]``, with the
    weights ``d_face`` of the momentum diagonal ``kdiag`` averaged onto the
    faces; at vanishing viscosity (d -> nu) the stabilized constraint
    reduces exactly to the Darcy pressure system.  The face matrices are
    built here and not kept.
    """
    grad = _flow_operators(grid).grad
    n = grid.ncells
    terms = []
    for axis, rows in enumerate((slice(0, n), slice(n, 2 * n))):
        avg = face_average_matrix(grid, axis, EXTRAPOLATE)
        c = np.maximum((avg @ kdiag[rows]) - nu, 0.0)
        weight = sp.diags(1.0 / _face_weight(c, nu))
        terms.append(face_divergence_matrix(grid, axis) @ weight
                     @ (avg @ grad[rows]
                        - face_gradient_matrix(grid, axis, DIRICHLET)))
    return (terms[0] + terms[1]).tocsr()


def _schur_model(grid: Grid, eta: float, lam: float, nu: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schur preconditioner symbols of the viscosities ``eta``, ``lam``.

    Returns ``(interior, wall, band)``.  ``interior`` is the symbol of the
    collocated operator away from the walls: per axis the Dirichlet modes
    ``theta = pi m / n``, ``m = 1..n``, have the compact eigenvalue
    ``lc = (2 - 2 cos theta) / h^2`` of ``grid.eigenbasis`` and the wide one
    ``lw = (sin theta / h)^2 = lc (1 - h^2 lc / 4)`` of the centred cell
    gradients.  The velocity part of ``S`` acts like ``lw / (nu + eta_hat
    lw)``, ``eta_hat = 2 eta + lam``, and the Rhie-Chow stabilization like
    ``(lc_x - lw_x) / d_x + (lc_y - lw_y) / d_y``, with the interior face
    weights ``d`` of K's interior viscous diagonals.  Next to the walls the
    first-order traction-free rows break that symbol, and modes localized
    there would get eigenvalues near ``-0.1 +- 0.8i``.  ``band`` marks the
    cells the wall closures reach, the 4 cell layers next to each wall:
    there the rows of the Rhie-Chow stabilization differ from the interior
    row, and the preconditioner uses the compact model ``wall = lc / (nu +
    eta_hat lc)`` instead.  On an axis of 8 cells every cell lies in a
    layer, and the band is the whole grid.
    """
    eta_hat = 2.0 * eta + lam
    _, _, lc_y, lc_x = _flow_operators(grid).pressure_basis
    # sin^2 theta = (2 - 2 cos theta) (1 - (2 - 2 cos theta) / 4)
    lw_y = lc_y * (1.0 - grid.hy**2 * lc_y / 4.0)
    lw_x = lc_x * (1.0 - grid.hx**2 * lc_x / 4.0)
    lc = lc_y[:, None] + lc_x[None, :]
    lw = lw_y[:, None] + lw_x[None, :]
    d_x = _face_weight(eta_hat / (2 * grid.hx**2) + eta / (2 * grid.hy**2), nu)
    d_y = _face_weight(eta_hat / (2 * grid.hy**2) + eta / (2 * grid.hx**2), nu)
    interior = lw / (nu + eta_hat * lw) + (lc_x - lw_x)[None, :] / d_x \
        + (lc_y - lw_y)[:, None] / d_y
    wall = lc / (nu + eta_hat * lc)
    band = np.ones(grid.shape, dtype=bool)
    band[4:-4, 4:-4] = False
    return interior, wall, band


class _InterleavedLU:
    """Sparse LU of the momentum operator ``K`` with u and v interleaved.

    ``K`` acts on the stacked vector ``(u, v)``; it is factored in the order
    ``u_0, v_0, u_1, v_1, ...``, in which the minimum-degree ordering finds
    less fill.  ``solve`` takes and returns the stacked vector.
    """

    def __init__(self, K: sp.csr_matrix):
        order = np.arange(K.shape[0]).reshape(2, -1).T.ravel()
        # K = nu I + V with V symmetric PSD and nu > 0 is SPD: diagonal
        # pivots are stable, so a symmetric ordering of K + K^T with no row
        # pivoting keeps the fill of a Cholesky-like factorization
        self.lu = spla.splu(K[order][:, order].tocsc(),
                            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        # slices copy faster than the transpose of b.reshape(2, -1)
        x[0::2], x[1::2] = b.reshape(2, -1)
        y = self.lu.solve(x)
        return y.reshape(-1, 2).T.ravel()


def _momentum_lu(grid: Grid, eta: float, lam: float,
                 nu: float) -> tuple[_InterleavedLU, np.ndarray]:
    """The LU of the momentum operator ``K = nu I + V`` and its diagonal."""
    with np.errstate(over="ignore"):  # an overflowing K is refused below
        K = _velocity_operator(grid, eta, lam, nu)
    # V is PSD and zero on constant fields, so the smallest eigenvalue of K
    # is nu and its largest absolute row sum over nu bounds its condition
    # number.  Past that bound's limit the K solves lose the velocity while
    # the Uzawa residual still converges: on 8x8 to 64x64 grids the velocity
    # drifts by about 1e-4 of its size at 1e14, by 2e-3 to 2e-2 a decade
    # above, and the solve stagnates from about 1e18.
    cond = float(abs(K).sum(axis=1).max()) / nu
    if not cond <= MAX_CONDITION:
        raise FlowSolverError(f"momentum operator condition bound {cond:.3e} "
                              f"exceeds {MAX_CONDITION:.0e}: eta/nu too large")
    try:
        return _InterleavedLU(K), K.diagonal()
    except RuntimeError as exc:  # a zero pivot: K singular in rounding
        raise FlowSolverError(f"momentum operator: {exc}") from None


def _orthogonalize(W: np.ndarray, Z: np.ndarray, w: np.ndarray,
                   z: np.ndarray) -> float:
    """Block Gram-Schmidt of ``w`` against the orthonormal rows ``W``.

    Removes from ``w`` its part in ``span W``, and the same combination of
    the rows ``Z`` from ``z``, both in place, and returns the norm of what
    is left of ``w``.  The pass runs a second time only when the first one
    cancels, leaving less than ``1/sqrt 2`` of the norm of ``w`` (Daniel,
    Gragg, Kaufman & Stewart, Math. Comp. 30, 1976).
    """
    norm = float(np.linalg.norm(w))
    for _ in range(2):
        c = W @ w
        w -= c @ W
        z -= c @ Z
        before, norm = norm, float(np.linalg.norm(w))
        if not norm < before * np.sqrt(0.5):
            break
    return norm


def _viscosity_number(a: np.ndarray, grid: Grid) -> float:
    """A viscosity given as a number or as a uniform field over ``grid``."""
    if a.ndim and (a.shape != grid.shape or a.min() != a.max()):
        raise ValueError(f"a viscosity field must be uniform over the "
                         f"{grid.ny}x{grid.nx} grid")
    return float(a.flat[0])


class UzawaSpace:
    """What a Brinkman solve reuses across solves: system, directions, offset.

    The system of one key ``(grid, eta, lam, nu)`` of numbers is kept, so a
    run's viscosities are factorized once: ``k_lu``, the LU of the momentum
    operator ``K = nu I + V`` (``K`` itself is not kept, no solve reads it),
    ``correction``, the Rhie-Chow stabilization of the constraint, the Schur
    model symbols ``interior`` and ``wall`` with the wall ``band`` they
    split on (``_schur_model``), and ``basis``, the Dirichlet pressure
    eigenbasis they are symbols in.  Rows
    ``Z[:k]`` are pressure directions and ``W[:k] = S Z[:k]`` their images
    under the Schur operator ``S`` of that system; ``W[:k]`` is orthonormal.
    ``S`` depends only on the key, so directions found for one right-hand
    side stay exact for every later one: a solve first removes the part of
    its initial residual that lies in ``span W`` (no velocity solves) and
    sweeps only on the rest, adding each new direction to the space.
    ``offset`` is ``p - p_D`` of the last converged solve, its pressure less
    the Darcy pressure of its own data, or ``None`` when there is none; a
    solve starts from the Darcy pressure of its data plus this viscous
    offset.  ``clear``, a key change and a solve that raises drop the
    directions and the offset; the restart of a full space drops only the
    directions.  Owned by one caller at a time.
    """

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.k_lu: _InterleavedLU | None = None
        self.Z = self.W = np.empty((0, 0))
        self.k = 0
        self.offset: np.ndarray | None = None

    def clear(self) -> None:
        self.k = 0
        self.offset = None

    def build(self, grid: Grid, eta: float, lam: float, nu: float) -> None:
        """Keep the system of ``(grid, eta, lam, nu)``: unless it is the
        kept key, empty the space and build that system."""
        key = (grid, eta, lam, nu)
        if self.key == key:
            return
        # release the old LU before the new one exists
        self.key = self.k_lu = None
        self.Z = np.empty((MAX_DIRECTIONS, grid.ncells))
        self.W = np.empty((MAX_DIRECTIONS, grid.ncells))
        self.clear()
        self.k_lu, kdiag = _momentum_lu(grid, eta, lam, nu)
        self.correction = _rhie_chow(grid, kdiag, nu)
        self.interior, self.wall, self.band = _schur_model(grid, eta, lam, nu)
        self.basis = _flow_operators(grid).pressure_basis
        self.key = key

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """The model inverse: ``interior`` off the band, ``wall`` on it."""
        coef = self.basis.forward(r.reshape(self.band.shape))
        z = np.where(self.band, self.basis.inverse(coef / self.wall),
                     self.basis.inverse(coef / self.interior))
        return z.ravel()


def solve_brinkman(force: np.ndarray, s_v: np.ndarray, eta: float,
                   lam: float, nu: float, grid: Grid,
                   opts: BrinkmanOptions | None = None,
                   space: UzawaSpace | None = None) -> FlowResult:
    """Uzawa-preconditioned Brinkman solve; see the module docstring.

    The iteration starts from the Darcy pressure of ``(force, s_v)`` plus
    the viscous offset ``space.offset`` that the last converged solve on
    ``space`` left, and from the Darcy pressure alone when there is none.
    ``space`` keeps the factorized system, the search directions and the
    offset of earlier solves and receives this solve's; a solve that raises
    leaves its directions and offset empty.  Without it the call builds and
    factorizes a fresh space, so it is cold and shares nothing; any start
    gives the same solution to the tolerance.  Each viscosity is a number,
    or a uniform field over the grid that stands for its value.  A
    non-uniform field or a viscosity outside assumption A3 raises
    ``ValueError``, non-finite ``force`` or ``s_v`` raises
    ``FlowSolverError`` and zero data returns the exact ``v = 0``, ``p = 0``;
    none of these builds anything.  A momentum operator whose condition
    bound exceeds ``MAX_CONDITION`` (a viscosity too large over ``nu`` for
    the grid) raises ``FlowSolverError`` before it is factorized.
    ``iterations`` is the number of sweeps run: 0 for a start that already
    meets the tolerance and for zero data.  ``opts`` defaults to
    ``FLOW_TOL``.
    """
    if nu <= 0:
        raise ValueError("permeability coefficient nu must be positive")
    opts = opts or BrinkmanOptions()
    eta, lam = np.asarray(eta, dtype=float), np.asarray(lam, dtype=float)
    # assumption A3: finite viscosities with eta > 0 and lam >= 0
    if not (np.isfinite(eta).all() and eta.min() > 0):
        raise ValueError("shear viscosity must be finite and positive")
    if not (np.isfinite(lam).all() and lam.min() >= 0):
        raise ValueError("bulk viscosity must be finite and nonnegative")
    eta, lam = _viscosity_number(eta, grid), _viscosity_number(lam, grid)
    norms = (l2_norm(force, grid) / nu, l2_norm(s_v, grid))
    if not np.isfinite(norms).all():
        raise FlowSolverError("Brinkman force or volume source is not finite")
    scale = max(norms)
    if scale == 0.0:
        # the exact solution; no nonzero guess meets a tolerance relative to
        # vanishing data
        return FlowResult(v=np.zeros((2,) + grid.shape), p=np.zeros(grid.shape),
                          div_residual=0.0, dissipation=0.0, iterations=0)
    ops = _flow_operators(grid)
    space = space if space is not None else UzawaSpace()
    space.build(grid, eta, lam, nu)
    k_lu, correction = space.k_lu, space.correction
    f_flat = force.reshape(-1)

    def schur_apply(z: np.ndarray) -> np.ndarray:
        """S z for S p := -div_F K^-1 G p + C p."""
        dv = k_lu.solve(-(ops.grad @ z))
        return ops.div_cells(dv.reshape(2, grid.ny, grid.nx)).ravel() \
            + correction @ z

    # the Darcy pressure of this data predicts the change since the last
    # solve; the slowly varying viscous offset is carried over
    p_darcy = _darcy_pressure(force, s_v, nu, grid)[0].ravel()
    p = p_darcy + (0.0 if space.offset is None else space.offset)
    v = k_lu.solve(f_flat - ops.grad @ p).reshape(2, grid.ny, grid.nx)
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
            z = space.precondition(r)
            w = schur_apply(z)
            if space.k == MAX_DIRECTIONS:
                space.k = 0  # periodic restart; sliding truncation can cycle
            k = space.k
            with np.errstate(over="ignore"):  # an overflow is a breakdown too
                norm = _orthogonalize(space.W[:k], space.Z[:k], w, z)
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
    space.offset = p - p_darcy
    rhs = f_flat - ops.grad @ p
    v_flat = k_lu.solve(rhs)
    v = v_flat.reshape(2, grid.ny, grid.nx)
    div_res = l2_norm(ops.div_cells(v) - s_v, grid)
    # v^T K v, with K v the right-hand side just solved
    dissipation = float(v_flat @ rhs) * grid.cell_area
    return FlowResult(v=v, p=p.reshape(grid.shape), div_residual=div_res,
                      dissipation=dissipation, iterations=sweeps)
