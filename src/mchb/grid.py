"""Cell-centered rectangular grid and its second-order difference stencils.

All fields live at cell centers of a uniform rectangular mesh, flattened row
by row (index ``j*nx + i``).  The stencils are sparse matrices: the face
gradient (x-faces ``(ny, nx+1)``, y-faces ``(ny+1, nx)``), the face
average, the compact face divergence, the centred cell gradient (the
average of the two adjacent face differences) and the flux-form diffusion
matrix ``fv_diffusion_matrix``, whose Neumann instance is minus the
five-point Laplacian; summation by parts is exact for zero-flux closures.
``wall_terms`` is its wall part, ``eigenbasis`` diagonalizes it (by two
dense products with the DCT/DST matrices up to ``DENSE_BASIS_MAX`` cells an
axis, where they cost less than scipy's transforms, and by the transforms
above), and ``wall_traces`` gives the boundary-face values of a field.
``cell_gradient`` is the Neumann centred cell gradient applied by slices;
the convective term ``advective_divergence`` and the Korteweg force both
take it.

Boundary closures are ghost-cell based, all defined in ``_ghost``:

* ``Neumann``      mirror ghost, zero normal derivative at the face,
* ``Dirichlet``    sign-flipped ghost, zero value at the face,
* ``Extrapolate``  quadratic one-sided ghost for fields without a physical
  boundary condition (velocities, assembled forces),
* ``Robin``        flux closure ``c dfdn = k (target - f)`` at the face.

The wall rows of every matrix, the eigenbasis and the traces are derived
from those closures, so each closure has one definition.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.fft import dctn, dstn, idctn, idstn


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on the rectangle [0, lx] x [0, ly]."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError(f"cell counts must be >= 8, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("domain extents must be positive")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def area(self) -> float:
        return self.lx * self.ly

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    def cell_axes(self):
        """Cell-centre coordinates: a row ``x[None, :]``, a column ``y[:, None]``.

        A product of one-axis factors evaluated on them broadcasts to the
        grid at the cost of its two axes.
        """
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return x[None, :], y[:, None]


# ---------------------------------------------------------------------------
# boundary conditions

@dataclass(frozen=True)
class Neumann:
    """Zero normal derivative (mirror ghost)."""


@dataclass(frozen=True)
class Dirichlet:
    """Zero face value (sign-flipped ghost)."""


@dataclass(frozen=True)
class Extrapolate:
    """Quadratic one-sided ghost; no physical condition imposed."""


@dataclass(frozen=True)
class Robin:
    """Flux closure ``diffusivity * dfdn = k (target - f)`` at the face."""

    k: float
    target: float
    diffusivity: float


BC = Neumann | Dirichlet | Extrapolate | Robin

NEUMANN = Neumann()
DIRICHLET = Dirichlet()
EXTRAPOLATE = Extrapolate()


def _ghost(edge: np.ndarray, nxt: np.ndarray, nxt2: np.ndarray, bc: BC,
           h: float) -> np.ndarray:
    """Ghost layer just outside the wall given the three interior layers."""
    if isinstance(bc, Neumann):
        return edge
    if isinstance(bc, Dirichlet):
        return -edge
    if isinstance(bc, Extrapolate):
        # quadratic fit keeps one-sided differences second order at the wall
        return 3.0 * edge - 3.0 * nxt + nxt2
    if isinstance(bc, Robin):
        c = bc.diffusivity
        denom = c / h + 0.5 * bc.k
        return (bc.k * bc.target + (c / h - 0.5 * bc.k) * edge) / denom
    raise TypeError(f"unknown boundary condition {bc!r}")


def _wall_closure(bc: BC, h: float) -> tuple[float, float]:
    """``(w, g0)`` of a two-point closure, ``ghost = w edge + g0``."""
    g0 = float(_ghost(0.0, 0.0, 0.0, bc, h))
    w = _ghost(*np.eye(3), bc, h) - g0
    if w[1] != 0.0 or w[2] != 0.0:
        raise TypeError(f"the closure {bc!r} reads past the edge layer")
    return float(w[0]), g0


def l2_norm(a: np.ndarray, grid: Grid) -> float:
    """Midpoint-quadrature L2 norm of a cell array or a stack of them."""
    return float(np.sqrt((a**2).sum() * grid.cell_area))


def wall_traces(a: np.ndarray, bc: BC,
                grid: Grid) -> list[tuple[np.ndarray, float]]:
    """Left, right, bottom and top boundary-face traces of the cell field
    ``a`` under ``bc``, each with the length of its faces: the midpoint of
    the edge and its ghost ``w edge + g0``, ``((1 + w) edge + g0) / 2``."""
    (wx, gx), (wy, gy) = _wall_closure(bc, grid.hx), _wall_closure(bc, grid.hy)
    return [(((1.0 + wx) * a[:, j] + gx) / 2.0, grid.hy) for j in (0, -1)] \
        + [(((1.0 + wy) * a[j, :] + gy) / 2.0, grid.hx) for j in (0, -1)]


# ---------------------------------------------------------------------------
# sparse operators (row-major flattening, index j*nx + i)
#
# Every 1-D stencil is a product of the padding map cells -> [ghost, cells,
# ghost], whose wall rows are ``_ghost`` applied to unit vectors, and
# two-point differences or averages.  ``1/h`` scales the product last.  The
# 2-D matrix is the Kronecker product with the identity along the other
# axis.

def _pad_1d(n: int, bc: BC, h: float) -> sp.csr_matrix:
    """Cells to ``[ghost, cells, ghost]``, shape ``(n+2, n)``."""
    if isinstance(bc, Robin):
        raise TypeError(f"the affine closure {bc!r} has no matrix form")
    e = np.eye(3)
    wall = _ghost(e[0], e[1], e[2], bc, h)
    rows = np.concatenate([np.zeros(3), np.arange(1, n + 1), np.full(3, n + 1)])
    cols = np.concatenate([np.arange(3), np.arange(n), n - 1 - np.arange(3)])
    vals = np.concatenate([wall, np.ones(n), wall])
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(n + 2, n))


def _pair_1d(m: int, a: float, b: float) -> sp.csr_matrix:
    """Two-point stencil ``x -> a x[:-1] + b x[1:]``, shape ``(m, m+1)``."""
    return sp.diags([np.full(m, a), np.full(m, b)], [0, 1], shape=(m, m + 1),
                    format="csr")


def _along(grid: Grid, axis: int, stencil) -> sp.csr_matrix:
    """The 1-D ``stencil(n, h)`` applied along x (axis=0) or y (axis=1)."""
    if axis == 0:
        return sp.kron(sp.identity(grid.ny, format="csr"),
                       stencil(grid.nx, grid.hx), format="csr")
    return sp.kron(stencil(grid.ny, grid.hy),
                   sp.identity(grid.nx, format="csr"), format="csr")


def face_gradient_matrix(grid: Grid, axis: int, bc: BC) -> sp.csr_matrix:
    """Differences of the cells across the faces normal to ``axis``."""
    return _along(grid, axis, lambda n, h: (
        _pair_1d(n + 1, -1.0, 1.0) @ _pad_1d(n, bc, h)) * (1.0 / h))


def face_average_matrix(grid: Grid, axis: int, bc: BC) -> sp.csr_matrix:
    """Two-point average of the cells onto the faces normal to ``axis``."""
    return _along(grid, axis,
                  lambda n, h: _pair_1d(n + 1, 0.5, 0.5) @ _pad_1d(n, bc, h))


def face_divergence_matrix(grid: Grid, axis: int) -> sp.csr_matrix:
    """Flux balance of the faces normal to ``axis``, one value per cell."""
    return _along(grid, axis, lambda n, h: _pair_1d(n, -1.0, 1.0) * (1.0 / h))


def cell_gradient_matrix(grid: Grid, axis: int, bc: BC) -> sp.csr_matrix:
    """Centred cell gradient, d/dx (axis=0) or d/dy (axis=1): the average
    of the two adjacent face differences."""
    return _along(grid, axis, lambda n, h: (
        _pair_1d(n, 0.5, 0.5) @ _pair_1d(n + 1, -1.0, 1.0)
        @ _pad_1d(n, bc, h)) * (1.0 / h))


def wall_terms(grid: Grid, bc: BC, coeff: float = 1.0,
               diag: np.ndarray | None = None):
    """The wall part ``(diag, rhs)`` of ``fv_diffusion_matrix(grid, bc,
    coeff)``, as ``(ny, nx)`` arrays; the diagonal part is added in place
    to ``diag`` when one is given.

    A wall face closes through the ghost ``w edge + g0`` of ``bc``: it adds
    ``coeff (1 - w) / h**2`` to the diagonal and ``coeff g0 / h**2`` to the
    rhs.  Both are zero but for the Robin closure, so the Robin matrix is
    ``coeff`` times the Neumann one plus the wall part of its diagonal.
    """
    diag = np.zeros(grid.shape) if diag is None else diag
    rhs = np.zeros(grid.shape)
    for sl, h in ((np.s_[:, 0], grid.hx), (np.s_[:, -1], grid.hx),
                  (np.s_[0, :], grid.hy), (np.s_[-1, :], grid.hy)):
        w, g0 = _wall_closure(bc, h)
        diag[sl] += coeff * (1.0 - w) / h**2
        rhs[sl] += coeff * g0 / h**2
    return diag, rhs


def fv_diffusion_matrix(grid: Grid, bc: BC, coeff: float = 1.0):
    """Assemble ``u -> -div(coeff grad u)`` in flux form; returns (matrix, rhs).

    The wall faces add ``wall_terms`` to the diagonal and make the rhs.
    The CSR arrays are built directly, each row in column order south,
    west, centre, east, north.  The five values of a row are one broadcast
    over the interleaved CSR data, with a zero for every wall neighbour;
    the zeros are dropped at the end, so no entry equal to zero is stored.
    """
    ny, nx = grid.ny, grid.nx
    n = grid.ncells
    tx, ty = coeff / grid.hx**2, coeff / grid.hy**2
    diag = np.zeros((ny, nx))
    for lo, hi, t in ((np.s_[:, :-1], np.s_[:, 1:], tx),
                      (np.s_[:-1, :], np.s_[1:, :], ty)):
        diag[lo] += t
        diag[hi] += t
    diag, rhs = wall_terms(grid, bc, coeff, diag)
    vals = np.empty((ny, nx, 5))
    vals[...] = (-ty, -tx, 0.0, -tx, -ty)
    vals[..., 2] = diag
    vals[0, :, 0] = vals[:, 0, 1] = vals[:, -1, 3] = vals[-1, :, 4] = 0.0
    # a wall neighbour's column is clipped into range, so every row stays in
    # non-decreasing column order until its zero is dropped
    cols = np.empty((n, 5), dtype=np.int32)
    np.add(np.arange(n, dtype=np.int32)[:, None],
           np.array((-nx, -1, 0, 1, nx), dtype=np.int32), out=cols)
    np.clip(cols, 0, n - 1, out=cols)
    indptr = np.arange(0, 5 * n + 1, 5, dtype=np.int32)
    mat = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(n, n))
    mat.eliminate_zeros()
    return mat, rhs.ravel()


Eigenbasis = namedtuple("Eigenbasis", "forward inverse lam_y lam_x")

# The largest axis of a Neumann or Dirichlet grid whose basis changes by two
# dense products rather than by scipy's DCT/DST.  On n x n grids, forward plus
# inverse on one OpenBLAS thread of a 2-core Xeon, dense over transform reads
# 0.2-0.3 at n = 16-32, 0.5 at 64, 0.7 at 80 and 0.8-0.9 at 96; at 100 the
# transform won one repeat of 14, and from 112 it wins every one.
DENSE_BASIS_MAX = 96


def _sinusoid_matrix(n: int, m0: int) -> np.ndarray:
    """The orthonormal type-II DCT (``m0 = 0``) or DST (``m0 = 1``) matrix
    by columns: ``q.T @ f`` is ``dct``/``dst(f, type=2, norm="ortho",
    axis=0)``, mode ``m`` from ``m0`` in column ``m - m0``."""
    # the angle pi (2j + 1) m / 2n, reduced below 2 pi in integers first
    theta = np.pi / (2 * n) * (np.outer(2 * np.arange(n) + 1,
                                         np.arange(m0, n + m0)) % (4 * n))
    q = np.sqrt(2.0 / n) * (np.sin(theta) if m0 else np.cos(theta))
    if m0:
        q[:, -1] /= np.sqrt(2.0)  # the mode m = n, (-1)^j / sqrt(n)
    else:
        q[:, 0] /= np.sqrt(2.0)  # the constant mode, 1 / sqrt(n)
    return q


def eigenbasis(grid: Grid, bc: BC, coeff: float = 1.0) -> Eigenbasis:
    """Orthonormal eigenbasis ``(forward, inverse, lam_y, lam_x)`` of
    ``fv_diffusion_matrix(grid, bc, coeff)``, the Kronecker sum of its axes.

    ``inverse((lam_y[:, None] + lam_x[None, :]) * forward(f))`` applies it
    to an ``(ny, nx)`` field (fast diagonalization; Lynch, Rice and Thomas,
    Numer. Math. 6, 1964).  Neumann axes take the type-II DCT basis and
    Dirichlet axes the DST basis (modes ``m`` from 0 and from 1), with the
    eigenvalue ``coeff (2 - 2 cos(pi m / n)) / h**2``; Robin axes take
    ``eigh`` of their dense operators.  Extrapolate, whose ghost reads past
    the edge layer, raises ``TypeError``.

    The change of basis is two dense products, ``forward(f) = q_y.T f q_x``
    and ``inverse(c) = q_y c q_x.T``, on Robin grids and on Neumann and
    Dirichlet grids with no axis above ``DENSE_BASIS_MAX`` cells, where they
    cost less than the transforms (the analytic matrices of
    ``_sinusoid_matrix``, so the Neumann mode 0 is the constant
    ``1/sqrt(n)``).  Larger Neumann and Dirichlet grids take ``dctn`` and
    ``dstn`` with their keywords; the dense functions accept and ignore
    ``overwrite_x``.
    """
    axes = ((grid.ny, grid.hy), (grid.nx, grid.hx))
    if isinstance(bc, (Neumann, Dirichlet)):
        m0 = int(isinstance(bc, Dirichlet))
        lam_y, lam_x = (
            coeff * (2.0 - 2.0 * np.cos(np.arange(m0, n + m0) * np.pi / n))
            / h**2 for n, h in axes)
        if max(grid.nx, grid.ny) > DENSE_BASIS_MAX:
            fwd, inv = (dstn, idstn) if m0 else (dctn, idctn)
            return Eigenbasis(partial(fwd, type=2, norm="ortho"),
                              partial(inv, type=2, norm="ortho"), lam_y, lam_x)
        q_y, q_x = (_sinusoid_matrix(n, m0) for n, _ in axes)
    else:
        pairs = []
        for n, h in axes:
            t = coeff / h**2
            mat = t * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
            w, _ = _wall_closure(bc, h)
            mat[0, 0] = mat[-1, -1] = t + coeff * (1.0 - w) / h**2
            pairs.append(np.linalg.eigh(mat))
        (lam_y, q_y), (lam_x, q_x) = pairs
    q_y, q_x, q_yt, q_xt = map(np.ascontiguousarray, (q_y, q_x, q_y.T, q_x.T))
    return Eigenbasis(lambda f, overwrite_x=False: q_yt @ f @ q_x,
                      lambda c, overwrite_x=False: q_y @ c @ q_xt,
                      lam_y, lam_x)


def cell_gradient(q: np.ndarray, grid: Grid,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Centred cell gradient ``(d/dx, d/dy)`` of ``q``, stacked ``(2, ny, nx)``
    into ``out`` if given.

    ``cell_gradient_matrix(grid, axis, NEUMANN)`` applied without a matrix:
    ``(q[i+1] - q[i-1]) / 2h`` inside, and at a wall the difference of the
    edge cell and its neighbour, since the mirror ghost equals the edge.
    """
    if out is None:
        out = np.empty((2,) + grid.shape)
    # the x differences are the row differences of the transposes
    for d, a, h in ((out[0].T, q.T, grid.hx), (out[1], q, grid.hy)):
        np.subtract(a[2:], a[:-2], out=d[1:-1])
        np.subtract(a[1], a[0], out=d[0])
        np.subtract(a[-1], a[-2], out=d[-1])
        d *= 0.5 / h
    return out


def advective_divergence(q: np.ndarray, vx: np.ndarray, vy: np.ndarray,
                         s_v: np.ndarray, grid: Grid) -> np.ndarray:
    """Convective term ``(grad q) . v + q s_v`` with ``cell_gradient``, the
    gradient of the Korteweg force, so the transport's work against a
    potential equals the force's work against ``v``."""
    gx, gy = cell_gradient(q, grid)
    gx *= vx
    gx += np.multiply(gy, vy, out=gy)
    gx += np.multiply(q, s_v, out=gy)
    return gx
