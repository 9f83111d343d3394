"""Grid stencils: exactness, adjointness, closures, eigenbases, convection."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dctn, dstn, idctn, idstn

import mchb.grid

from mchb.grid import (DENSE_BASIS_MAX, DIRICHLET, EXTRAPOLATE, NEUMANN,
                       Grid, Robin, advective_divergence, cell_gradient,
                       cell_gradient_matrix, eigenbasis,
                       face_average_matrix, face_divergence_matrix,
                       face_gradient_matrix, fv_diffusion_matrix, wall_terms,
                       wall_traces, _ghost)


@pytest.fixture
def grid():
    return Grid(32, 24, 1.3, 0.9)


def rand_field(grid, seed=0):
    return np.random.default_rng(seed).standard_normal(grid.shape)


def apply(mat, a, shape):
    return (mat @ a.ravel()).reshape(shape)


def ghost_padded(a, bc, grid):
    """``a`` with one ghost layer per wall, each ``_ghost`` of ``bc``; the
    corners are never read."""
    out = np.zeros((grid.ny + 2, grid.nx + 2))
    out[1:-1, 1:-1] = a
    out[1:-1, 0] = _ghost(a[:, 0], a[:, 1], a[:, 2], bc, grid.hx)
    out[1:-1, -1] = _ghost(a[:, -1], a[:, -2], a[:, -3], bc, grid.hx)
    out[0, 1:-1] = _ghost(a[0], a[1], a[2], bc, grid.hy)
    out[-1, 1:-1] = _ghost(a[-1], a[-2], a[-3], bc, grid.hy)
    return out


def written_face_gradient(a, bc, grid):
    """The face differences, x-faces ``(ny, nx+1)`` and y-faces
    ``(ny+1, nx)``, written out on the ghost-padded field."""
    p = ghost_padded(a, bc, grid)
    return (np.diff(p[1:-1], axis=1) / grid.hx,
            np.diff(p[:, 1:-1], axis=0) / grid.hy)


def written_flux_balance(gx, gy, grid):
    return (gx[:, 1:] - gx[:, :-1]) / grid.hx + (gy[1:] - gy[:-1]) / grid.hy


def face_laplacian(a, bc, grid):
    """The flux balance of the face gradient, from the sparse face stencils."""
    return sum(apply(face_divergence_matrix(grid, axis)
                     @ face_gradient_matrix(grid, axis, bc), a, grid.shape)
               for axis in (0, 1))


class TestOperators:
    def test_constant_field(self, grid):
        f = np.full(grid.shape, 2.5)
        for axis in (0, 1):
            for build in (face_gradient_matrix, cell_gradient_matrix):
                assert not (build(grid, axis, NEUMANN) @ f.ravel()).any()
        assert not face_laplacian(f, NEUMANN, grid).any()
        a_neu, _ = fv_diffusion_matrix(grid, NEUMANN)
        assert np.abs(a_neu @ f.ravel()).max() \
            <= 1e-15 * 2.5 * np.abs(a_neu.data).max()

    def test_laplacian_cosine_convergence(self):
        errs = []
        ns = (16, 32, 64, 128)
        for n in ns:
            g = Grid(n, n, 1.3, 0.9)
            x, _ = g.cell_axes()
            f = np.broadcast_to(np.cos(np.pi * x / g.lx), g.shape)
            exact = -(np.pi / g.lx) ** 2 * f
            err = -apply(fv_diffusion_matrix(g, NEUMANN)[0], f, g.shape) - exact
            errs.append(np.sqrt((err**2).sum() * g.cell_area))
        slope = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_composition_identity(self, grid):
        # div(grad f) of the face stencils and the assembled Neumann matrix
        # are the mirror-ghost five-point stencil, written out here
        f = rand_field(grid)
        a = np.pad(f, 1, mode="edge")
        five_point = ((a[1:-1, 2:] - 2.0 * f + a[1:-1, :-2]) / grid.hx**2
                      + (a[2:, 1:-1] - 2.0 * f + a[:-2, 1:-1]) / grid.hy**2)
        tol = 1e-13 * np.abs(five_point).max()
        assert np.abs(face_laplacian(f, NEUMANN, grid) - five_point).max() <= tol
        a_neu, _ = fv_diffusion_matrix(grid, NEUMANN)
        assert np.abs(apply(a_neu, f, grid.shape) + five_point).max() <= tol

    def test_adjointness_zero_flux(self, grid):
        # summation by parts: (A w, f) = (grad w, grad f) over all faces, and
        # the Neumann matrix is symmetric
        f = rand_field(grid, seed=1)
        w = rand_field(grid, seed=2)
        a_neu, _ = fv_diffusion_matrix(grid, NEUMANN)
        assert abs(a_neu - a_neu.T).max() == 0.0
        lhs = float((apply(a_neu, w, grid.shape) * f).sum())
        rhs = sum(float((face_gradient_matrix(grid, axis, NEUMANN) @ w.ravel()
                         @ (face_gradient_matrix(grid, axis, NEUMANN)
                            @ f.ravel())))
                  for axis in (0, 1))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_quadratic_exactness_interior(self, grid):
        x, y = grid.cell_axes()
        q = x**2 + 3 * x * y + 2 * y**2 + x - y + 1
        lap = face_laplacian(q, EXTRAPOLATE, grid)
        assert np.abs(lap[1:-1, 1:-1] - 6.0).max() < 1e-10
        # the extrapolated cell gradient is exact on quadratics, walls included
        gx = apply(cell_gradient_matrix(grid, 0, EXTRAPOLATE), q, grid.shape)
        gy = apply(cell_gradient_matrix(grid, 1, EXTRAPOLATE), q, grid.shape)
        assert np.abs(gx - (2 * x + 3 * y + 1)).max() < 1e-10
        assert np.abs(gy - (3 * x + 4 * y - 1)).max() < 1e-10

    def test_matrix_matches_operator(self, grid):
        # the assembled Neumann matrix is minus the product of the face stencils
        a_neu, rhs = fv_diffusion_matrix(grid, NEUMANN)
        assert np.all(rhs == 0.0)
        product = sum(face_divergence_matrix(grid, axis)
                      @ face_gradient_matrix(grid, axis, NEUMANN)
                      for axis in (0, 1))
        assert abs(a_neu + product).max() <= 1e-13 * abs(a_neu).max()

    def test_robin_matrix_matches_face_operator(self, grid):
        # the affine Robin matrix is the written flux balance of 0.7 grad f
        # with the wall faces closed by the Robin ghost
        bc = Robin(k=2.0, target=1.5, diffusivity=0.7)
        f = rand_field(grid, seed=4)
        a_rob, rhs = fv_diffusion_matrix(grid, bc, 0.7)
        via_matrix = (a_rob @ f.ravel() - rhs).reshape(grid.shape)
        gx, gy = written_face_gradient(f, bc, grid)
        via_faces = -written_flux_balance(0.7 * gx, 0.7 * gy, grid)
        assert np.allclose(via_matrix, via_faces, atol=1e-11)

    @pytest.mark.parametrize("bc", [NEUMANN, Robin(k=2.0, target=1.5,
                                                    diffusivity=0.7)])
    def test_closure_changes_only_the_wall_diagonal(self, bc):
        # the matrix under a closure is coeff times the Neumann one plus the
        # wall part of its diagonal, and the wall part makes the rhs
        grid = Grid(37, 16, 2.3, 0.7)
        mat, rhs = fv_diffusion_matrix(grid, bc, 0.7)
        diag, wall = wall_terms(grid, bc, 0.7)
        a_neu, _ = fv_diffusion_matrix(grid, NEUMANN)
        rest = mat - 0.7 * a_neu - sp.diags(diag.ravel())
        assert abs(rest).max() <= 1e-14 * abs(mat).max()
        assert np.array_equal(wall.ravel(), rhs)
        assert np.count_nonzero(diag) == (102 if isinstance(bc, Robin) else 0)

    def test_extrapolated_closure_has_no_diffusion_rows(self, grid):
        # its ghost reads the second and third layers, not only the edge
        with pytest.raises(TypeError):
            fv_diffusion_matrix(grid, EXTRAPOLATE)
        with pytest.raises(TypeError):
            eigenbasis(grid, EXTRAPOLATE)


def coo_diffusion_matrix(grid, bc, coeff):
    """Reference flux-form assembly from (row, column, value) triplets."""
    ny, nx = grid.ny, grid.nx
    idx = np.arange(grid.ncells).reshape(ny, nx)
    diag = np.zeros((ny, nx))
    rhs = np.zeros((ny, nx))
    rows, cols, vals = [], [], []
    for lo, hi, h in ((np.s_[:, :-1], np.s_[:, 1:], grid.hx),
                      (np.s_[:-1, :], np.s_[1:, :], grid.hy)):
        t = coeff / h**2
        diag[lo] += t
        diag[hi] += t
        a, b = idx[lo].ravel(), idx[hi].ravel()
        rows += [a, b]
        cols += [b, a]
        vals += [np.full(a.size, -t)] * 2
    for sl, h in ((np.s_[:, 0], grid.hx), (np.s_[:, -1], grid.hx),
                  (np.s_[0, :], grid.hy), (np.s_[-1, :], grid.hy)):
        g0 = float(_ghost(0.0, 0.0, 0.0, bc, h))
        w = float(_ghost(1.0, 0.0, 0.0, bc, h)) - g0
        diag[sl] += coeff * (1.0 - w) / h**2
        rhs[sl] += coeff * g0 / h**2
    rows.append(idx.ravel()); cols.append(idx.ravel()); vals.append(diag.ravel())
    mat = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(grid.ncells, grid.ncells)).tocsr()
    return mat, rhs.ravel()


class TestDiffusionAssembly:
    @pytest.mark.parametrize("dims", [(8, 8, 1.0, 1.0), (16, 37, 2.3, 0.7),
                                      (64, 64, 20.0, 20.0), (256, 8, 1.0, 1.0),
                                      (256, 256, 1.0, 1.0)])
    def test_csr_arrays_equal_the_triplet_assembly(self, dims):
        grid = Grid(*dims)
        for coeff in (1.0, 0.7, 1e-3):
            for bc in (NEUMANN, DIRICHLET, Robin(k=0.3, target=1.7,
                                                  diffusivity=coeff)):
                mat, rhs = fv_diffusion_matrix(grid, bc, coeff)
                ref, ref_rhs = coo_diffusion_matrix(grid, bc, coeff)
                assert mat.has_sorted_indices
                for got, want in ((mat.data, ref.data),
                                  (mat.indices, ref.indices),
                                  (mat.indptr, ref.indptr), (rhs, ref_rhs)):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (dims, coeff, bc)

    @pytest.mark.parametrize("dims", [(8, 8, 1.0, 1.0), (16, 37, 2.3, 0.7),
                                      (64, 48, 20.0, 20.0),
                                      (24, 40, 1.3, 0.7)],
                             ids=["8x8", "16x37", "64x48", "24x40"])
    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET,
                                    Robin(k=0.3, target=1.7, diffusivity=0.7)],
                             ids=["neumann", "dirichlet", "robin"])
    def test_axes_sum_to_the_assembled_matrix(self, dims, bc):
        # the matrix is the Kronecker sum of its axes, so their eigenvalues
        # sum to its symbol in their orthonormal eigenbasis
        grid = Grid(*dims)
        mat, _ = fv_diffusion_matrix(grid, bc, 0.7)
        basis = eigenbasis(grid, bc, 0.7)
        assert basis.lam_y.shape == (grid.ny,)
        assert basis.lam_x.shape == (grid.nx,)
        f = rand_field(grid, seed=5)
        via_matrix = (mat @ f.ravel()).reshape(grid.shape)
        symbol = basis.lam_y[:, None] + basis.lam_x[None, :]
        via_basis = basis.inverse(symbol * basis.forward(f))
        assert np.abs(via_basis - via_matrix).max() \
            <= 1e-12 * np.abs(via_matrix).max()
        assert np.abs(basis.inverse(basis.forward(f)) - f).max() \
            <= 1e-14 * np.abs(f).max()

    def test_wide_eigenvalue_from_the_compact_one(self):
        # sin^2 theta = (2 - 2 cos theta) (1 - (2 - 2 cos theta) / 4): the
        # Brinkman preconditioner derives the eigenvalue (sin theta / h)^2 of
        # the centred cell gradients from the Dirichlet eigenvalues
        for n in range(8, 257):
            grid = Grid(n, 8, 0.7, 1.0)
            lc = eigenbasis(grid, DIRICHLET).lam_x
            lw = lc * (1.0 - grid.hx**2 * lc / 4.0)
            theta = np.pi * np.arange(1, n + 1) / n
            ref = (np.sin(theta) / grid.hx)**2
            assert np.abs(lw - ref).max() <= 1e-12 * ref.max(), n

    def test_peak_memory_is_a_small_multiple_of_the_result(self):
        grid = Grid(256, 256)
        fv_diffusion_matrix(grid, NEUMANN)
        tracemalloc.start()
        try:
            mat, rhs = fv_diffusion_matrix(grid, NEUMANN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
                    + rhs.nbytes)
        assert peak <= 2.5 * returned


CUT = DENSE_BASIS_MAX


class TestEigenbasisBranches:
    """Dense products up to ``DENSE_BASIS_MAX`` cells an axis, the scipy
    transforms above it: the same basis and eigenvalues either way."""

    @pytest.mark.parametrize("dims", [(24, 40, 1.3, 0.7), (CUT, 48, 2.0, 1.1),
                                      (CUT, CUT, 1.0, 1.0),
                                      (CUT + 1, 40, 1.7, 0.9),
                                      (16, CUT + 1, 1.0, 2.5)],
                             ids=["below", "at-x", "at", "above-x", "above-y"])
    @pytest.mark.parametrize("bc, fwd, inv", [(NEUMANN, dctn, idctn),
                                              (DIRICHLET, dstn, idstn)],
                             ids=["neumann", "dirichlet"])
    def test_matches_the_scipy_transforms(self, dims, bc, fwd, inv,
                                          monkeypatch):
        grid = Grid(*dims)
        calls = []
        monkeypatch.setattr(mchb.grid, fwd.__name__,
                            lambda *a, **k: calls.append(1) or fwd(*a, **k))
        basis = eigenbasis(grid, bc, 0.7)
        f = rand_field(grid, seed=9)
        coef = basis.forward(f)
        # the dense branch calls no transform; only a larger axis does
        assert bool(calls) == (max(grid.nx, grid.ny) > CUT)
        want = fwd(f, type=2, norm="ortho")
        assert np.abs(coef - want).max() <= 1e-13 * np.abs(want).max()
        back = inv(coef, type=2, norm="ortho")
        assert np.abs(basis.inverse(coef) - back).max() \
            <= 1e-13 * np.abs(back).max()
        assert np.abs(basis.inverse(coef, overwrite_x=True) - f).max() \
            <= 1e-13 * np.abs(f).max()
        # the analytic eigenvalues, bit for bit, with lambda_0 = 0 on Neumann
        m0 = int(bc is DIRICHLET)
        for lam, n, h in ((basis.lam_y, grid.ny, grid.hy),
                          (basis.lam_x, grid.nx, grid.hx)):
            m = np.arange(m0, n + m0)
            assert lam.tobytes() == (
                0.7 * (2.0 - 2.0 * np.cos(m * np.pi / n)) / h**2).tobytes()
        if bc is NEUMANN:
            assert basis.lam_y[0] == basis.lam_x[0] == 0.0
            # mode (0, 0) is the positive constant 1/sqrt(N) the phase
            # solve's mean-mode step divides by
            unit = np.zeros(grid.shape)
            unit[0, 0] = 1.0
            mode = basis.inverse(unit)
            assert np.abs(mode * np.sqrt(grid.ncells) - 1.0).max() <= 1e-15


class TestBoundaryClosures:
    def test_robin_ghost_exact_for_linear_profile(self):
        # linear profile satisfying c dfdn = k (target - f) at the left face
        k, c, target, h, beta = 2.0, 0.7, 1.5, 0.05, 0.8
        f_face = target + c * beta / k
        f = lambda x: f_face + beta * x
        ghost = _ghost(np.array([f(h / 2)]), np.array([f(3 * h / 2)]),
                       np.array([f(5 * h / 2)]), Robin(k, target, c), h)
        assert ghost[0] == pytest.approx(f(-h / 2), abs=1e-13)

    def test_dirichlet_ghost_odd(self):
        g = Grid(16, 16, 1.0, 1.0)
        x, _ = np.broadcast_arrays(*g.cell_axes())
        gx = apply(face_gradient_matrix(g, 0, DIRICHLET), np.sin(np.pi * x),
                   (g.ny, g.nx + 1))
        # wall-face derivative of sin(pi x) at x = 0 is pi, second order
        assert gx[:, 0] == pytest.approx(np.pi, rel=2e-2)

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET,
                                    Robin(k=2.0, target=1.5, diffusivity=0.7)],
                             ids=["neumann", "dirichlet", "robin"])
    def test_wall_traces_are_edge_ghost_midpoints(self, grid, bc):
        a = 1.0 + rand_field(grid, seed=7)
        p = ghost_padded(a, bc, grid)
        want = [(0.5 * (a[:, 0] + p[1:-1, 0]), grid.hy),
                (0.5 * (a[:, -1] + p[1:-1, -1]), grid.hy),
                (0.5 * (a[0] + p[0, 1:-1]), grid.hx),
                (0.5 * (a[-1] + p[-1, 1:-1]), grid.hx)]
        got = wall_traces(a, bc, grid)
        assert len(got) == 4
        for (tr, length), (ref, ref_length) in zip(got, want):
            assert length == ref_length and tr.shape == ref.shape
            assert np.abs(tr - ref).max() <= 1e-15 * np.abs(ref).max()


class TestSparseStencils:
    """The sparse stencils against the array stencils written out on the
    ghost-padded field."""

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET, EXTRAPOLATE])
    def test_matrices_match_array_operators(self, grid, bc):
        # the matrices sum the same terms in another order
        def close(got, want):
            assert np.abs(got - want.ravel()).max() <= 1e-13 * np.abs(want).max()

        f = rand_field(grid, seed=4)
        flat = f.ravel()
        gx, gy = written_face_gradient(f, bc, grid)
        close(face_gradient_matrix(grid, 0, bc) @ flat, gx)
        close(face_gradient_matrix(grid, 1, bc) @ flat, gy)
        close(cell_gradient_matrix(grid, 0, bc) @ flat,
              0.5 * (gx[:, 1:] + gx[:, :-1]))
        close(cell_gradient_matrix(grid, 1, bc) @ flat,
              0.5 * (gy[1:] + gy[:-1]))
        close(face_divergence_matrix(grid, 0) @ gx.ravel()
              + face_divergence_matrix(grid, 1) @ gy.ravel(),
              written_flux_balance(gx, gy, grid))

    @pytest.mark.parametrize("build", [cell_gradient_matrix, face_gradient_matrix,
                                       face_average_matrix])
    def test_robin_has_no_matrix_form(self, grid, build):
        with pytest.raises(TypeError):
            build(grid, 0, Robin(k=1.0, target=0.5, diffusivity=1.0))

    def test_wall_rows_pinned(self):
        # n = 8: the quadratic face average and the sign-flipped face
        # gradient behind the Rhie-Chow correction
        g = Grid(8, 8, 2.0, 1.0)
        h = g.hx
        avg = np.zeros((9, 8))
        grad = np.zeros((9, 8))
        for f in range(1, 8):
            avg[f, f - 1:f + 1] = 0.5
            grad[f, f - 1:f + 1] = [-1.0 / h, 1.0 / h]
        avg[0, :3] = [2.0, -1.5, 0.5]
        avg[8, 5:] = [0.5, -1.5, 2.0]
        grad[0, 0] = 2.0 / h
        grad[8, 7] = -2.0 / h
        m_avg = face_average_matrix(g, 0, EXTRAPOLATE)
        m_grad = face_gradient_matrix(g, 0, DIRICHLET)
        assert np.array_equal(m_avg.toarray()[:9, :8], avg)
        assert np.array_equal(m_grad.toarray()[:9, :8], grad)
        assert m_avg.nnz == 8 * (2 * 7 + 6)
        assert m_grad.nnz == 8 * (2 * 7 + 2)


EPS = np.finfo(float).eps
GRADIENT_GRIDS = [(8, 8, 1.0, 1.0), (37, 16, 2.3, 0.7), (64, 64, 20.0, 20.0)]


def neumann_gradient_products(q, grid):
    """The stacked ``cell_gradient_matrix(grid, axis, NEUMANN) @ q`` and its
    rounding scale ``|M| @ |q|``."""
    mats = [cell_gradient_matrix(grid, axis, NEUMANN) for axis in (0, 1)]
    return (np.stack([apply(m, q, grid.shape) for m in mats]),
            np.stack([apply(abs(m), np.abs(q), grid.shape) for m in mats]))


class TestCellGradient:
    @pytest.mark.parametrize("dims", GRADIENT_GRIDS)
    def test_is_the_neumann_matrix_product(self, dims):
        # each entry differs from the product's by a few roundings of the
        # two terms it sums, so the bound is relative to |M| |q|
        g = Grid(*dims)
        q = rand_field(g, seed=13)
        ref, scale = neumann_gradient_products(q, g)
        got = cell_gradient(q, g)
        assert got.shape == (2,) + g.shape
        assert np.all(np.abs(got - ref) <= 4 * EPS * scale)


class TestAdvection:
    def test_zero_velocity(self, grid):
        q = rand_field(grid, seed=10)
        z = np.zeros(grid.shape)
        assert np.abs(advective_divergence(q, z, z, z, grid)).max() == 0.0

    def test_constant_transported_field(self, grid):
        rng = np.random.default_rng(11)
        q = np.full(grid.shape, 4.0)
        vx = rng.standard_normal(grid.shape)
        vy = rng.standard_normal(grid.shape)
        s_v = rng.standard_normal(grid.shape)
        out = advective_divergence(q, vx, vy, s_v, grid)
        assert np.allclose(out, 4.0 * s_v, atol=1e-13)

    @pytest.mark.parametrize("dims", GRADIENT_GRIDS)
    def test_is_the_gradient_product_dotted_with_v(self, dims):
        g = Grid(*dims)
        rng = np.random.default_rng(5)
        q, vx, vy, s_v = rng.standard_normal((4,) + g.shape)
        (gx, gy), (sx, sy) = neumann_gradient_products(q, g)
        ref = gx * vx + gy * vy + q * s_v
        scale = sx * np.abs(vx) + sy * np.abs(vy) + np.abs(q * s_v)
        out = advective_divergence(q, vx, vy, s_v, g)
        assert np.all(np.abs(out - ref) <= 8 * EPS * scale)

    def test_manufactured_convergence(self):
        from mchb.verification import mms_advection
        study = mms_advection((32, 64, 128))
        assert study.slope >= 1.8


class TestGridValidation:
    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid(4, 16, 1.0, 1.0)

    def test_cell_divergence_of_linear_field(self):
        g = Grid(32, 32, 2.0, 2.0)
        x, y = np.broadcast_arrays(*g.cell_axes())
        div = apply(cell_gradient_matrix(g, 0, EXTRAPOLATE), 2.0 * x, g.shape) \
            + apply(cell_gradient_matrix(g, 1, EXTRAPOLATE), -1.0 * y, g.shape)
        assert np.abs(div - 1.0).max() < 1e-11
