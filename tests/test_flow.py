"""Flow solves: Darcy, Brinkman, the vanishing-viscosity bridge, forces."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_array_equal
from scipy.sparse.linalg import spsolve

import mchb.flow
from mchb.cli import run_darcy_sweep
from mchb.parameters import build_default_scenario
from mchb.state import build_initial_state
from mchb.stepping import TimeStepper, explicit_terms

from mchb.grid import DIRICHLET, EXTRAPOLATE, Grid, advective_divergence, \
    cell_gradient_matrix, face_average_matrix, face_divergence_matrix, \
    face_gradient_matrix, fv_diffusion_matrix
from mchb.flow import (BrinkmanOptions, FlowSolverError, darcy_residual,
                       korteweg_force, solve_brinkman, solve_darcy)


def l2(a, grid):
    return float(np.sqrt((np.asarray(a)**2).sum() * grid.cell_area))


def extrapolated_gradient(a, grid):
    """``(d/dx, d/dy)`` of a velocity component, one-sided at the walls."""
    return [(cell_gradient_matrix(grid, axis, EXTRAPOLATE) @ a.ravel())
            .reshape(grid.shape) for axis in (0, 1)]


@pytest.fixture
def grid():
    return Grid(48, 48, 1.0, 1.0)


def manufactured(grid, nu=1.0):
    x, y = grid.cell_axes()
    p = np.sin(np.pi * x) * np.sin(np.pi * y)
    vx = np.sin(np.pi * x) * np.cos(np.pi * y)
    vy = np.cos(np.pi * x) * np.sin(np.pi * y)
    s_v = 2.0 * np.pi * np.cos(np.pi * x) * np.cos(np.pi * y)
    gpx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    gpy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    force = np.stack([gpx + nu * vx, gpy + nu * vy])
    return p, np.stack([vx, vy]), s_v, force


def condition_bound(grid, eta, lam, nu):
    """The bound on K's condition number that a Brinkman build checks."""
    K = mchb.flow._velocity_operator(grid, eta, lam, nu)
    return float(abs(K).sum(axis=1).max()) / nu


def viscous_problem(n):
    """Unit-square grid, force ``(sin pi x cos pi y, y cos pi x)`` and
    ``s_v = cos pi x cos pi y / 10``."""
    grid = Grid(n, n, 1.0, 1.0)
    x, y = grid.cell_axes()
    cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
    return grid, np.stack([np.sin(np.pi * x) * cy, y * cx]), 0.1 * cx * cy


class TestDarcy:
    def test_zero_inputs(self, grid):
        res = solve_darcy(np.zeros((2,) + grid.shape), np.zeros(grid.shape),
                          1.0, grid)
        assert np.abs(res.v).max() == 0.0 and np.abs(res.p).max() == 0.0

    def test_gradient_force_absorbed_by_pressure(self, grid):
        x, y = grid.cell_axes()
        q = np.sin(np.pi * x) * np.sin(2 * np.pi * y)
        gq = np.stack([np.pi * np.cos(np.pi * x) * np.sin(2 * np.pi * y),
                       2 * np.pi * np.sin(np.pi * x) * np.cos(2 * np.pi * y)])
        res = solve_darcy(gq, np.zeros(grid.shape), 1.0, grid, tol=1e-12)
        assert l2(res.p - q, grid) < 30.0 / grid.nx**2
        assert l2(res.v, grid) < 60.0 / grid.nx**2

    def test_manufactured_recovery(self, grid):
        p, v, s_v, force = manufactured(grid)
        res = solve_darcy(force, s_v, 1.0, grid, tol=1e-12)
        assert l2(res.p - p, grid) < 1e-3
        assert l2(res.v - v, grid) < 5e-3

    def test_div_residual_second_order(self):
        resids = []
        for n in (32, 64):
            grid = Grid(n, n, 1.0, 1.0)
            _, _, s_v, force = manufactured(grid)
            resids.append(solve_darcy(force, s_v, 1.0, grid,
                                      tol=1e-12).div_residual)
        assert resids[0] / resids[1] > 3.0
        assert resids[1] < 0.1

    def test_linearity(self, grid):
        _, _, s_v, force = manufactured(grid)
        r1 = solve_darcy(force, s_v, 1.0, grid, tol=1e-12)
        r2 = solve_darcy(3.0 * force, 3.0 * s_v, 1.0, grid, tol=1e-12)
        assert l2(r2.v - 3.0 * r1.v, grid) < 1e-9
        assert l2(r2.p - 3.0 * r1.p, grid) < 1e-9

    def test_mirror_symmetry(self):
        grid = Grid(32, 32, 1.0, 1.0)
        rng = np.random.default_rng(12)
        gx = rng.standard_normal(grid.shape)
        gy = rng.standard_normal(grid.shape)
        s = rng.standard_normal(grid.shape)
        # symmetrize under x -> lx - x: fx odd, fy even, s_v even
        fx = gx - gx[:, ::-1]
        fy = gy + gy[:, ::-1]
        s_v = s + s[:, ::-1]
        res = solve_darcy(np.stack([fx, fy]), s_v, 1.0, grid, tol=1e-13)
        assert np.abs(res.v[0] + res.v[0][:, ::-1]).max() < 1e-10
        assert np.abs(res.v[1] - res.v[1][:, ::-1]).max() < 1e-10
        assert np.abs(res.p - res.p[:, ::-1]).max() < 1e-10

    def test_darcy_residual_definitional(self, grid):
        p, v, s_v, force = manufactured(grid)
        res = solve_darcy(force, s_v, 1.0, grid, tol=1e-12)
        assert darcy_residual(res.v, res.p, force, 1.0, grid) < 1e-10
        f0 = np.stack([np.full(grid.shape, 2.0), np.zeros(grid.shape)])
        assert darcy_residual(np.zeros((2,) + grid.shape), np.zeros(grid.shape),
                              f0, 1.0, grid) == pytest.approx(2.0)

    def test_nu_must_be_positive(self, grid):
        with pytest.raises(ValueError):
            solve_darcy(np.zeros((2,) + grid.shape), np.zeros(grid.shape),
                        0.0, grid)

    def test_pressure_matches_sparse_direct_solve(self):
        grid = Grid(48, 32, 1.0, 1.3)
        rng = np.random.default_rng(3)
        force = rng.standard_normal((2,) + grid.shape)
        s_v = rng.standard_normal(grid.shape)
        nu = 0.7
        div = cell_gradient_matrix(grid, 0, EXTRAPOLATE) @ force[0].ravel() \
            + cell_gradient_matrix(grid, 1, EXTRAPOLATE) @ force[1].ravel()
        mat, _ = fv_diffusion_matrix(grid, DIRICHLET)
        ref = spsolve(mat.tocsc(), nu * s_v.ravel() - div).reshape(grid.shape)
        res = solve_darcy(force, s_v, nu, grid, tol=1e-12)
        assert np.abs(res.p - ref).max() <= 1e-12 * np.abs(ref).max()
        assert res.iterations == 1

    @pytest.mark.parametrize("dims", [(8, 8, 1.0, 1.0), (24, 16, 1.7, 0.9)])
    def test_matches_the_plain_expressions_bit_for_bit(self, dims):
        # the solve forms its arrays in place; these are the expressions
        # it replaced, on the same operators
        grid = Grid(*dims)
        rng = np.random.default_rng(21)
        force = rng.standard_normal((2,) + grid.shape)
        s_v = rng.standard_normal(grid.shape)
        nu = 0.7
        ops = mchb.flow._flow_operators(grid)

        def div(v):
            return (ops.dx_e @ v[0].ravel()
                    + ops.dy_e @ v[1].ravel()).reshape(grid.shape)

        rhs = nu * s_v - div(force)
        basis = ops.pressure_basis
        p = basis.inverse(basis.forward(rhs) / ops.poisson_dir_symbol)
        v = (force - np.stack([
            (cell_gradient_matrix(grid, axis, DIRICHLET) @ p.ravel())
            .reshape(grid.shape) for axis in (0, 1)])) / nu
        res = solve_darcy(force, s_v, nu, grid)
        assert res.v.tobytes() == v.tobytes()
        assert res.p.tobytes() == p.tobytes()
        assert res.div_residual == l2(div(v) - s_v, grid)
        assert res.dissipation == nu * float((v**2).sum()) * grid.cell_area

    def test_failed_residual_check_raises(self, grid):
        _, _, s_v, force = manufactured(grid)
        with pytest.raises(FlowSolverError):
            solve_darcy(force, s_v, 1.0, grid, tol=0.0)
        s_v[3, 5] = np.nan
        with pytest.raises(FlowSolverError):
            solve_darcy(force, s_v, 1.0, grid)


class TestBrinkman:
    def test_zero_inputs(self, grid):
        res = solve_brinkman(np.zeros((2,) + grid.shape), np.zeros(grid.shape),
                             np.full(grid.shape, 0.1), np.full(grid.shape, 0.1),
                             1.0, grid)
        assert np.abs(res.v).max() == 0.0 and np.abs(res.p).max() == 0.0

    def test_constant_force(self, grid):
        f0 = np.stack([np.full(grid.shape, 2.0), np.full(grid.shape, -1.0)])
        res = solve_brinkman(f0, np.zeros(grid.shape), np.full(grid.shape, 0.5),
                             np.full(grid.shape, 0.5), 2.0, grid)
        assert np.abs(res.v[0] - 1.0).max() < 1e-10
        assert np.abs(res.v[1] + 0.5).max() < 1e-10
        assert np.abs(res.p).max() < 1e-10

    def test_small_viscosity_matches_darcy(self, grid):
        _, _, s_v, force = manufactured(grid)
        ref = solve_darcy(force, s_v, 1.0, grid, tol=1e-12)
        eta = np.full(grid.shape, 1e-6)
        res = solve_brinkman(force, s_v, eta, eta, 1.0, grid,
                             BrinkmanOptions(tol=1e-11))
        gap = l2(res.v - ref.v, grid) / max(l2(ref.v, grid), 1e-300)
        assert gap <= 1e-3

    def test_gap_ladder_decreasing(self):
        grid = Grid(32, 32, 4.0, 4.0)
        x, y = grid.cell_axes()
        bump = np.exp(-((x - 2)**2 + (y - 2)**2))
        force = np.stack([bump * (y - 2), -bump * (x - 2)])
        s_v = 0.2 * bump
        ref = solve_darcy(force, s_v, 1.0, grid, tol=1e-12)
        gaps, dres = [], []
        for eta in (1e-1, 1e-2, 1e-3):
            e = np.full(grid.shape, eta)
            res = solve_brinkman(force, s_v, e, e, 1.0, grid,
                                 BrinkmanOptions(tol=1e-11))
            gaps.append(l2(res.v - ref.v, grid))
            dres.append(darcy_residual(res.v, res.p, force, 1.0, grid))
        assert gaps[0] > gaps[1] > gaps[2]
        assert dres[0] > dres[1] > dres[2]

    def test_number_and_uniform_field_agree(self):
        grid = Grid(24, 24, 1.0, 1.0)
        _, _, s_v, force = manufactured(grid)
        opts = BrinkmanOptions(1e-10)
        # positional options and uniform fields, as the benchmark passes them
        number = solve_brinkman(force, s_v, 0.05, 0.02, 1.0, grid, opts)
        field = solve_brinkman(force, s_v, np.full(grid.shape, 0.05),
                               np.full(grid.shape, 0.02), 1.0, grid, opts)
        assert field.iterations == number.iterations > 1
        assert_array_equal(field.v, number.v)
        assert_array_equal(field.p, number.p)

    def test_energy_identity_quadrature_accuracy(self):
        # discrete weak form tested with v: viscous+permeability power equals
        # force power plus pressure work, up to quadrature/boundary closure
        mism = []
        for n in (32, 64):
            grid = Grid(n, n, 1.0, 1.0)
            _, _, s_v, force = manufactured(grid)
            eta0 = 0.05
            eta = np.full(grid.shape, eta0)
            res = solve_brinkman(force, s_v, eta, eta, 1.0, grid,
                                 BrinkmanOptions(tol=1e-12))
            uxx, uxy = extrapolated_gradient(res.v[0], grid)
            vyx, vyy = extrapolated_gradient(res.v[1], grid)
            d12 = 0.5 * (uxy + vyx)
            dv2 = uxx**2 + vyy**2 + 2 * d12**2
            divv = uxx + vyy
            lhs = ((2 * eta * dv2 + eta * divv**2 + res.v[0]**2 + res.v[1]**2)
                   .sum() * grid.cell_area)
            rhs = ((force * res.v).sum() + (res.p * s_v).sum()) * grid.cell_area
            mism.append(abs(lhs - rhs) / abs(rhs))
        assert mism[0] < 0.05
        assert mism[1] < mism[0]

    @pytest.mark.parametrize("eta", [1e300, 1.7e308])
    def test_overflowing_viscosity_is_a_solver_error(self, eta):
        # 1e300 once overflowed the face weight and 1.7e308 overflows K,
        # whose factorization then fails; both are solver failures
        grid = Grid(8, 8)
        _, _, s_v, force = manufactured(grid)
        with pytest.raises(FlowSolverError):
            solve_brinkman(force, s_v, eta, eta, 1.0, grid)

    @pytest.mark.parametrize("n, eta", [(8, 1e10), (32, 1e9)])
    def test_viscosity_below_the_condition_bound_solves(self, n, eta):
        # K's condition bound is 2.6e3 eta at 8x8 and 4.1e4 eta at 32x32;
        # a decade below the refused level the velocity still holds
        grid, force, s_v = viscous_problem(n)
        ref = solve_brinkman(force, s_v, 1e7, 1e7, 1.0, grid,
                             BrinkmanOptions(tol=1e-11))
        res = solve_brinkman(force, s_v, eta, eta, 1.0, grid)
        assert np.abs(res.v - ref.v).max() <= 1e-3 * np.abs(ref.v).max()

    @pytest.mark.parametrize("n, eta", [(8, 1e11), (32, 1e10)])
    def test_viscosity_above_the_condition_bound_is_refused(self, n, eta,
                                                            monkeypatch):
        # past the bound the K solves lose the velocity (by 3e-3 and 1e-3 of
        # its size here, and by percents a decade higher) while the Uzawa
        # residual still converges; the system is refused before the LU
        grid, force, s_v = viscous_problem(n)
        monkeypatch.setattr(spla, "splu", None)
        with pytest.raises(FlowSolverError, match="condition bound"):
            solve_brinkman(force, s_v, eta, eta, 1.0, grid)

    def test_eta_must_be_positive(self, grid):
        with pytest.raises(ValueError):
            solve_brinkman(np.zeros((2,) + grid.shape), np.zeros(grid.shape),
                           np.zeros(grid.shape), np.zeros(grid.shape), 1.0, grid)

    @pytest.mark.parametrize("nu", [0.0, -1.0])
    def test_nu_must_be_positive(self, grid, nu):
        _, _, s_v, force = manufactured(grid)
        eta = np.full(grid.shape, 0.1)
        with pytest.raises(ValueError):
            solve_brinkman(force, s_v, eta, eta, nu, grid)

    @pytest.mark.parametrize("target,value", [("force", np.nan),
                                              ("s_v", np.inf),
                                              ("s_v", np.nan)])
    def test_non_finite_data_raises(self, grid, monkeypatch, target, value):
        _, _, s_v, force = manufactured(grid)
        data = {"force": force, "s_v": s_v}
        data[target].reshape(-1)[7] = value
        space = mchb.flow.UzawaSpace()
        factorizations = count_factorizations(monkeypatch)
        with pytest.raises(FlowSolverError, match="not finite"):
            solve_brinkman(force, s_v, np.full(grid.shape, 0.1),
                           np.full(grid.shape, 0.1), 1.0, grid, space=space)
        assert factorizations == [] and space.key is None


    @pytest.mark.parametrize("target,value,form", [
        pytest.param(t, v, form, id=f"{t}-{prefix}{v}")
        for form, prefix in (("cell", ""), ("scalar", "scalar-"))
        for t in ("eta", "lam") for v in (np.nan, np.inf, -1.0)
    ] + [pytest.param(t, 0.2, "cell", id=f"{t}-non-uniform")
         for t in ("eta", "lam")])
    def test_bad_viscosity_raises_before_building(self, monkeypatch, target,
                                                  value, form):
        # assumption A3: finite eta > 0 and lam >= 0, as numbers or as
        # uniform fields; a field with one other cell is neither
        grid = Grid(16, 16, 1.0, 1.0)
        _, _, s_v, force = manufactured(grid)
        if form == "scalar":
            visc = {"eta": 0.1, "lam": 0.1, target: value}
        else:
            visc = {"eta": np.full(grid.shape, 0.1),
                    "lam": np.full(grid.shape, 0.1)}
            visc[target][3, 5] = value
        space = mchb.flow.UzawaSpace()
        factorizations = count_factorizations(monkeypatch)
        with pytest.raises(ValueError, match="viscosity"):
            solve_brinkman(force, s_v, visc["eta"], visc["lam"], 1.0, grid,
                           space=space)
        assert factorizations == [] and space.key is None


ETA_LADDER = (1e-4, 1e-2, 5e-2, 0.5)


def built_space(grid, eta, lam, nu):
    """A new ``UzawaSpace`` holding the Brinkman system of its key."""
    space = mchb.flow.UzawaSpace()
    space.build(grid, eta, lam, nu)
    return space


def wall_symbol_everywhere(space):
    """The space, given the compact wall model on every cell."""
    space.band = np.ones_like(space.band)
    return space


def schur_matrix(space, grid):
    """Dense Schur operator ``-div K^-1 G + C``, one apply per column."""
    ops = mchb.flow._flow_operators(grid)
    cols = []
    for z in np.eye(grid.ncells):
        dv = space.k_lu.solve(-(ops.grad @ z))
        cols.append(ops.div_cells(dv.reshape(2, grid.ny, grid.nx)).ravel()
                    + space.correction @ z)
    return np.array(cols).T


def darcy_limit_correction(grid):
    """The Rhie-Chow correction of a darcy-limit Brinkman system, no LU."""
    cfg = build_default_scenario("darcy-limit")
    nu = cfg.model.nu
    K = mchb.flow._velocity_operator(grid, cfg.eta0, cfg.lambda0, nu)
    return mchb.flow._rhie_chow(grid, K.diagonal(), nu)


def dense_stencil_band(grid, correction):
    """Reference wall band: every row as a dense stencil of all its offsets."""
    c = correction.tocoo()
    dj = c.col // grid.nx - c.row // grid.nx
    di = c.col % grid.nx - c.row % grid.nx
    r = int(max(np.abs(dj).max(), np.abs(di).max()))
    stencil = np.zeros((grid.ncells, 2 * r + 1, 2 * r + 1))
    stencil[c.row, dj + r, di + r] = c.data
    centre = stencil[(grid.ny // 2) * grid.nx + grid.nx // 2]
    return (stencil != centre).any(axis=(1, 2)).reshape(grid.shape)


def preconditioned_eigenvalues(space, S):
    pre = np.array([space.precondition(z) for z in np.eye(len(S))]).T
    return np.linalg.eigvals(pre @ S)


class TestSchurPreconditioner:
    @pytest.mark.parametrize("eta", ETA_LADDER)
    def test_spectrum_in_the_right_half_plane(self, eta):
        grid = Grid(16, 16, 1.0, 1.0)
        space = built_space(grid, eta, eta, 1.0)
        S = schur_matrix(space, grid)
        got = preconditioned_eigenvalues(space, S)
        ref = preconditioned_eigenvalues(wall_symbol_everywhere(space), S)
        # the interior symbol alone put the wall modes near -0.1 +- 0.8i
        assert got.real.min() >= 0.5

        def outside(ev):
            return int(((ev.real < 0.5) | (ev.real > 2.0)).sum())

        # 136 against 187 at eta = 1e-2; none at 1e-4
        assert outside(got) < outside(ref) or outside(ref) == 0

    @pytest.mark.parametrize("grid", [Grid(16, 16, 1.0, 1.0),
                                      Grid(24, 16, 1.0, 1.7)])
    def test_band_is_where_the_stabilization_leaves_its_interior_row(self,
                                                                     grid):
        space = built_space(grid, 0.05, 0.02, 1.0)
        C = space.correction.tocsr()

        def row(j, i):
            r = C.getrow(j * grid.nx + i)
            return {(c // grid.nx - j, c % grid.nx - i): v
                    for c, v in zip(r.indices, r.data) if v != 0.0}

        centre = row(grid.ny // 2, grid.nx // 2)
        differs = np.array([[row(j, i) != centre for i in range(grid.nx)]
                            for j in range(grid.ny)])
        assert_array_equal(space.band, differs)
        frame = np.ones(grid.shape, dtype=bool)
        frame[4:-4, 4:-4] = False
        assert_array_equal(space.band, frame)

    @pytest.mark.parametrize("grid", [Grid(16, 24), Grid(64, 64),
                                      Grid(128, 128)])
    def test_band_equals_the_dense_stencil_comparison(self, grid):
        # the band a darcy-limit space keeps, without its LU
        cfg = build_default_scenario("darcy-limit")
        C = darcy_limit_correction(grid)
        _, _, band = mchb.flow._schur_model(grid, cfg.eta0, cfg.lambda0,
                                            cfg.model.nu)
        assert_array_equal(band, dense_stencil_band(grid, C))
        frame = np.ones(grid.shape, dtype=bool)
        frame[4:-4, 4:-4] = False
        assert_array_equal(band, frame)
        if grid.nx == grid.ny == 64:
            assert band.sum() == 960

    @pytest.mark.parametrize("grid", [Grid(8, 8), Grid(8, 16)])
    def test_band_covers_a_grid_with_an_8_cell_axis(self, grid):
        # every cell of an 8-cell axis lies in one of the 4 layers next to
        # a wall, the central cell included
        cfg = build_default_scenario("darcy-limit")
        space = built_space(grid, cfg.eta0, cfg.lambda0, cfg.model.nu)
        assert space.band.all()

    @pytest.mark.parametrize("grid", [Grid(8, 8), Grid(24, 16, 1.0, 1.7),
                                      Grid(128, 96, 2.0, 1.0)])
    def test_symbols_equal_the_sine_forms(self, grid):
        # the compact and wide eigenvalues of the Dirichlet modes
        # theta = pi m / n, m = 1..n, written with sines
        eta, lam, nu = 0.05, 0.02, 1.0
        interior, wall, _ = mchb.flow._schur_model(grid, eta, lam, nu)

        def axis(n, h):
            theta = np.pi * np.arange(1, n + 1) / n
            return (2.0 * np.sin(theta / 2) / h)**2, (np.sin(theta) / h)**2

        (lc_y, lw_y), (lc_x, lw_x) = axis(grid.ny, grid.hy), axis(grid.nx,
                                                                  grid.hx)
        eta_hat = 2.0 * eta + lam
        face = mchb.flow._face_weight
        d_x = face(eta_hat / (2 * grid.hx**2) + eta / (2 * grid.hy**2), nu)
        d_y = face(eta_hat / (2 * grid.hy**2) + eta / (2 * grid.hx**2), nu)
        lc = lc_y[:, None] + lc_x[None, :]
        lw = lw_y[:, None] + lw_x[None, :]
        ref_interior = lw / (nu + eta_hat * lw) \
            + (lc_x - lw_x)[None, :] / d_x + (lc_y - lw_y)[:, None] / d_y
        for got, ref in ((interior, ref_interior),
                         (wall, lc / (nu + eta_hat * lc))):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [16, 32])
    def test_cold_solves_take_no_more_sweeps(self, monkeypatch, n):
        grid = Grid(n, n, 1.0, 1.0)
        _, _, s_v, force = manufactured(grid)
        opts = BrinkmanOptions(tol=1e-10)

        def sweeps():
            return [solve_brinkman(force, s_v, eta, eta, 1.0, grid,
                                   opts).iterations for eta in ETA_LADDER]

        got = sweeps()
        build = mchb.flow.UzawaSpace.build

        def wall_everywhere(space, *key):
            build(space, *key)
            wall_symbol_everywhere(space)

        monkeypatch.setattr(mchb.flow.UzawaSpace, "build", wall_everywhere)
        ref = sweeps()
        assert all(a <= b for a, b in zip(got, ref)), (got, ref)
        assert sum(got) < sum(ref)


def count_factorizations(monkeypatch):
    calls = []
    orig = spla.splu

    def wrapper(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", wrapper)
    return calls


FACE_MATRICES = ("face_average_matrix", "face_divergence_matrix",
                 "face_gradient_matrix")


class TestFlowOperatorCache:
    def test_darcy_builds_no_face_matrix(self, monkeypatch):
        calls = []

        def counted(name, orig):
            def wrapper(*args):
                calls.append(name)
                return orig(*args)
            return wrapper

        for name in FACE_MATRICES:
            monkeypatch.setattr(mchb.flow, name,
                                counted(name, getattr(mchb.flow, name)))
        mchb.flow._flow_operators.cache_clear()
        grid = Grid(40, 24, 1.3, 0.9)
        _, _, s_v, force = manufactured(grid)
        solve_darcy(force, s_v, 1.0, grid)
        assert calls == []
        assert set(vars(mchb.flow._flow_operators(grid))) == {
            "grid", "dx_e", "dy_e", "grad", "poisson_dir", "pressure_basis",
            "poisson_dir_symbol"}
        built_space(grid, 0.05, 0.02, 1.0)
        assert sorted(calls) == sorted(2 * FACE_MATRICES)

    @pytest.mark.parametrize("grid", [Grid(16, 24), Grid(64, 64)])
    def test_correction_equals_the_face_matrix_assembly(self, grid):
        cfg = build_default_scenario("darcy-limit")
        nu = cfg.model.nu
        space = built_space(grid, cfg.eta0, cfg.lambda0, nu)
        kdiag = mchb.flow._velocity_operator(grid, cfg.eta0, cfg.lambda0,
                                             nu).diagonal()
        terms = []
        for axis, diag in ((0, kdiag[:grid.ncells]), (1, kdiag[grid.ncells:])):
            grad = cell_gradient_matrix(grid, axis, DIRICHLET)
            avg = face_average_matrix(grid, axis, EXTRAPOLATE)
            c = np.maximum((avg @ diag) - nu, 0.0)
            weight = sp.diags(1.0 / (nu + c * (c / (nu + c))))
            terms.append(face_divergence_matrix(grid, axis) @ weight
                         @ (avg @ grad
                            - face_gradient_matrix(grid, axis, DIRICHLET)))
        ref = (terms[0] + terms[1]).tocsr()
        got = space.correction
        for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices),
                     (got.data, ref.data)):
            assert a.dtype == b.dtype
            assert_array_equal(a, b)

    @pytest.mark.parametrize("grid", [Grid(16, 24), Grid(64, 64)])
    def test_stacked_gradient_is_the_two_axis_gradients(self, grid):
        # stacking keeps each row's entries in order, so every product is
        # bit-equal to the per-axis products it replaced
        ops = mchb.flow._flow_operators(grid)
        p = np.random.default_rng(22).standard_normal(grid.shape)
        axes = [cell_gradient_matrix(grid, axis, DIRICHLET) @ p.ravel()
                for axis in (0, 1)]
        assert (ops.grad @ p.ravel()).tobytes() \
            == np.concatenate(axes).tobytes()
        assert ops.grad_pressure(p).tobytes() == np.stack(
            [a.reshape(grid.shape) for a in axes]).tobytes()


class TestBrinkmanSystemReuse:
    @pytest.fixture
    def problem(self):
        grid = Grid(24, 24, 1.0, 1.0)
        _, _, s_v, force = manufactured(grid)
        return grid, force, s_v

    def test_warm_call_matches_cold_call(self, problem, monkeypatch):
        grid, force, s_v = problem
        args = (force, s_v, 0.05, 0.05, 1.0, grid)
        cold = solve_brinkman(*args)
        space = mchb.flow.UzawaSpace()
        solve_brinkman(*args, space=space)
        space.clear()
        factorizations = count_factorizations(monkeypatch)
        warm = solve_brinkman(*args, space=space)
        assert factorizations == []
        assert_array_equal(warm.v, cold.v)
        assert_array_equal(warm.p, cold.p)

    def test_key_changes_rebuild(self, problem, monkeypatch):
        grid, force, s_v = problem
        eta = 0.05
        space = mchb.flow.UzawaSpace()
        solve_brinkman(force, s_v, eta, eta, 1.0, grid, space=space)
        factorizations = count_factorizations(monkeypatch)
        solve_brinkman(force, s_v, eta, eta, 2.0, grid, space=space)
        solve_brinkman(force, s_v, eta, 0.5 * eta, 2.0, grid, space=space)
        assert len(factorizations) == 2

    def test_threads_never_see_a_wrong_operator(self, problem):
        grid, force, s_v = problem
        etas = (0.05, 0.02, 0.1)
        fresh = [solve_brinkman(force, s_v, e, e, 1.0, grid) for e in etas]

        def worker(offset):
            for k in range(6):
                j = (k + offset) % len(etas)
                got = solve_brinkman(force, s_v, etas[j], etas[j], 1.0, grid)
                assert_array_equal(got.v, fresh[j].v)
                assert_array_equal(got.p, fresh[j].p)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(worker, k % 2) for k in range(4)]
                for fut in futures:
                    fut.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)

    def test_stepper_factorizes_once_per_run(self, monkeypatch):
        cfg = dataclasses.replace(build_default_scenario("darcy-limit"),
                                  grid_nx=16, grid_ny=16)
        st = TimeStepper(cfg)
        factorizations = count_factorizations(monkeypatch)
        summary = st.run(state=build_initial_state(cfg, st.bundle))
        assert len(summary.reports) == 5
        assert len(factorizations) == 1

    def test_alternating_steppers_keep_their_systems(self, monkeypatch):
        def stepper(eta):
            cfg = dataclasses.replace(build_default_scenario("darcy-limit"),
                                      grid_nx=32, grid_ny=32, eta0=eta,
                                      lambda0=eta)
            st = TimeStepper(cfg)
            return st, build_initial_state(cfg, st.bundle), []

        def advance(run):
            st, state, iters = run
            state, rep = st.step(state, st.config.dt)
            iters.append(rep.flow_iterations)
            return st, state, iters

        alone = []
        for eta in (1e-2, 1e-3):
            run = stepper(eta)
            for _ in range(6):
                run = advance(run)
            alone.append(run)
        runs = [stepper(1e-2), stepper(1e-3)]
        factorizations = count_factorizations(monkeypatch)
        for _ in range(6):
            runs = [advance(run) for run in runs]
        assert len(factorizations) == 2
        for (_, state, iters), (_, ref, ref_iters) in zip(runs, alone):
            assert iters == ref_iters
            for name in ("phi", "mu", "sigma", "v", "p"):
                assert_array_equal(getattr(state, name), getattr(ref, name))

    def test_sweep_threads_match_serial(self):
        cfg = dataclasses.replace(build_default_scenario("darcy-limit"),
                                  grid_nx=16, grid_ny=16)
        levels = (1e-1, 1e-2, 1e-3)
        serial = run_darcy_sweep(cfg, levels, jobs=1, snapshot_steps=1)
        threaded = run_darcy_sweep(cfg, levels, jobs=2, snapshot_steps=1)
        assert not serial.partial and not threaded.partial
        assert_array_equal(threaded.velocity_gaps, serial.velocity_gaps)
        assert_array_equal(threaded.darcy_residuals, serial.darcy_residuals)
        assert threaded.sweeps == serial.sweeps
        assert all(k >= 1 for k in serial.sweeps)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_keeps_the_levels_before_a_failure(self, monkeypatch, jobs):
        cfg = dataclasses.replace(build_default_scenario("darcy-limit"),
                                  grid_nx=16, grid_ny=16)
        solve = mchb.flow.solve_brinkman

        def fail_at_1e_3(force, s_v, eta, *args, **kwargs):
            if eta == 1e-3:
                raise FlowSolverError("injected")
            return solve(force, s_v, eta, *args, **kwargs)

        monkeypatch.setattr(mchb.flow, "solve_brinkman", fail_at_1e_3)
        full = run_darcy_sweep(cfg, (1e-1, 1e-2), jobs=jobs, snapshot_steps=1)
        got = run_darcy_sweep(cfg, (1e-4, 1e-1, 1e-3, 1e-2), jobs=jobs,
                              snapshot_steps=1)
        assert got.partial and not full.partial
        assert got.eta_levels == [1e-1, 1e-2]
        assert got.velocity_gaps == full.velocity_gaps
        assert got.sweeps == full.sweeps


def darcy_limit_stepper(n=32):
    cfg = dataclasses.replace(build_default_scenario("darcy-limit"),
                              grid_nx=n, grid_ny=n)
    return cfg, TimeStepper(cfg)


class TestBrinkmanWarmStart:
    @pytest.fixture
    def problem(self):
        cfg, st = darcy_limit_stepper()
        g = st.grid
        x, y = g.cell_axes()
        force = np.stack([np.sin(np.pi * x) * np.cos(np.pi * y),
                          -np.cos(2 * np.pi * x) * np.sin(np.pi * y)])
        s_v = 0.1 * np.cos(np.pi * x) * np.cos(np.pi * y)
        return force, s_v, cfg.eta0, cfg.lambda0, cfg.model.nu, g

    def test_symmetric_mode_lu_matches_direct_solve(self, problem):
        # the interleaved factorization solves for the stacked (u, v) vector:
        # the preset at 32x32 and 64x64, a non-square grid, and a viscosity
        # whose condition bound is near 1e12.  Two direct solves differ by
        # up to about eps times the condition number (8e-6 there, each 4e-6
        # off a refined solution), so past a bound of 1e3 the agreement is
        # scaled by it; the backward error is at rounding in every case
        _, _, eta, lam, nu, g = problem
        stiff = Grid(16, 12, 1.0, 0.8)
        eta_stiff = 1e12 / condition_bound(stiff, 1.0, 1.0, 1.0)
        cases = [(g, eta, lam, nu), (Grid(64, 64, 20.0, 20.0), eta, lam, nu),
                 (Grid(16, 12, 1.3, 0.9), 0.05, 0.02, 1.0),
                 (stiff, eta_stiff, eta_stiff, 1.0)]
        rng = np.random.default_rng(0)
        for grid, eta, lam, nu in cases:
            K = mchb.flow._velocity_operator(grid, eta, lam, nu)
            bound = condition_bound(grid, eta, lam, nu)
            space = built_space(grid, eta, lam, nu)
            b = rng.standard_normal(2 * grid.ncells)
            ref = spsolve(K.tocsc(), b)
            got = space.k_lu.solve(b)
            norm = np.linalg.norm
            assert norm(got - ref) <= max(1e-12, 1e-15 * bound) * norm(ref)
            assert norm(K @ got - b) <= 1e-15 * (nu * bound * norm(got)
                                                  + norm(b))
        assert 0.9e12 <= bound <= 1.1e12

    @staticmethod
    def converged(problem, opts=None):
        """A solve on a new space and that space, its directions dropped."""
        space = mchb.flow.UzawaSpace()
        res = solve_brinkman(*problem, opts, space=space)
        space.k = 0  # only the offset is left to start from
        return res, space

    def test_perturbed_guess_matches_cold_solve(self, problem):
        g = problem[-1]
        opts = BrinkmanOptions(tol=1e-9)
        cold, space = self.converged(problem, opts)
        x, y = g.cell_axes()
        space.offset = space.offset + 0.1 * np.abs(cold.p).max() \
            * (np.sin(3 * np.pi * x) * np.sin(2 * np.pi * y)).ravel()
        warm = solve_brinkman(*problem, opts, space=space)
        assert warm.iterations > 1
        # the velocity inherits the constraint tolerance; the pressure error
        # is the Schur operator's conditioning times it
        assert l2(warm.v - cold.v, g) <= opts.tol * l2(cold.v, g)
        assert l2(warm.p - cold.p, g) <= 1e-7 * l2(cold.p, g)

    def test_converged_guess_takes_no_sweep(self, problem, monkeypatch):
        # the count is of sweeps run, one orthogonalization each
        orthogonalize, sweeps = mchb.flow._orthogonalize, []

        def counted(*args):
            sweeps.append(args)
            return orthogonalize(*args)

        monkeypatch.setattr(mchb.flow, "_orthogonalize", counted)
        cold, space = self.converged(problem)
        assert cold.iterations == len(sweeps) > 1
        again = solve_brinkman(*problem, space=space)
        assert again.iterations == 0 and len(sweeps) == cold.iterations
        assert np.abs(again.v - cold.v).max() <= 1e-12 * np.abs(cold.v).max()

    def test_guess_on_zero_data_returns_zero(self, problem):
        _, _, eta, lam, nu, g = problem
        _, space = self.converged(problem)
        space.offset = np.random.default_rng(1).standard_normal(g.ncells)
        res = solve_brinkman(np.zeros((2,) + g.shape), np.zeros(g.shape), eta,
                             lam, nu, g, space=space)
        assert np.abs(res.v).max() == 0.0 and np.abs(res.p).max() == 0.0
        assert res.iterations == 0

    def test_stepper_warm_start_saves_sweeps(self):
        cfg, st = darcy_limit_stepper()
        _, ref = darcy_limit_stepper()
        warm = cold = build_initial_state(cfg, st.bundle)
        iters = []
        for _ in range(5):
            warm, rep = st.step(warm, cfg.dt)
            iters.append(rep.flow_iterations)
            ref._uzawa_space.clear()
            cold, _ = ref.step(cold, cfg.dt)
        assert all(k < iters[0] for k in iters[1:]), iters
        for a, b in ((warm.v, cold.v), (warm.p, cold.p)):
            assert np.abs(a - b).max() <= 1e-7 * np.abs(b).max()

    @staticmethod
    def start_from_zero_pressure(monkeypatch):
        """Make every solve start at its kept offset, the last pressure."""
        monkeypatch.setattr(mchb.flow, "_darcy_pressure",
                            lambda force, s_v, nu, grid:
                            (np.zeros(grid.shape), None))

    def test_darcy_start_saves_sweeps_over_a_run(self, monkeypatch):
        _, got = darcy_limit_run(8)
        self.start_from_zero_pressure(monkeypatch)
        _, ref = darcy_limit_run(8)
        sweeps = [sum(r.flow_iterations for r in run.reports)
                  for run in (got, ref)]
        assert sweeps[0] < sweeps[1], sweeps
        assert_close(got.state.v, ref.state.v, 1e-7)
        assert_close(got.state.p, ref.state.p, 1e-7)

    def test_darcy_start_saves_sweeps_near_the_limit(self, monkeypatch):
        cfg, st = darcy_limit_stepper()
        terms = explicit_terms(build_initial_state(cfg, st.bundle), st.bundle,
                               True, True)
        args = (terms.force, terms.s_v, 1e-4, 1e-4, cfg.model.nu, st.grid)
        got = solve_brinkman(*args)
        self.start_from_zero_pressure(monkeypatch)
        ref = solve_brinkman(*args)
        assert got.iterations < ref.iterations, [got.iterations,
                                                 ref.iterations]
        assert_close(got.v, ref.v, 1e-7)
        assert_close(got.p, ref.p, 1e-7)


def darcy_limit_run(steps, n=32):
    cfg = build_default_scenario("darcy-limit")
    cfg = dataclasses.replace(cfg, grid_nx=n, grid_ny=n, t_end=steps * cfg.dt)
    st = TimeStepper(cfg)
    return st, st.run(state=build_initial_state(cfg, st.bundle))


def assert_close(a, b, rel):
    assert np.abs(a - b).max() <= rel * np.abs(b).max()


def reference_dissipation(v, eta, lam, nu, grid):
    """``nu |v|^2 + 2 eta |Dv|^2 + lam (div v)^2`` from the cell gradients."""
    uxx, uxy = extrapolated_gradient(v[0], grid)
    vyx, vyy = extrapolated_gradient(v[1], grid)
    d12 = 0.5 * (uxy + vyx)
    dv2 = uxx**2 + vyy**2 + 2.0 * d12**2
    divv = uxx + vyy
    return (nu * float((v**2).sum())
            + float((2.0 * eta * dv2 + lam * divv**2).sum())) * grid.cell_area


class TestFlowDissipation:
    def test_brinkman_is_the_viscous_form(self):
        cfg, st = darcy_limit_stepper()
        s, _ = st.step(build_initial_state(cfg, st.bundle), cfg.dt)
        terms = explicit_terms(s, st.bundle, True, True)
        res = solve_brinkman(terms.force, terms.s_v, cfg.eta0, cfg.lambda0,
                             cfg.model.nu, st.grid)
        ref = reference_dissipation(res.v, cfg.eta0, cfg.lambda0,
                                    cfg.model.nu, st.grid)
        assert ref > 0.0
        assert abs(res.dissipation - ref) <= 1e-12 * ref

    def test_darcy_is_nu_v_squared(self, grid):
        _, _, s_v, force = manufactured(grid, nu=2.0)
        res = solve_darcy(force, s_v, 2.0, grid)
        assert res.dissipation > 0.0
        assert res.dissipation == 2.0 * float((res.v**2).sum()) * grid.cell_area

    def test_zero_data_dissipates_nothing(self, grid):
        zeros = np.zeros((2,) + grid.shape), np.zeros(grid.shape)
        assert solve_darcy(*zeros, 1.0, grid).dissipation == 0.0
        assert solve_brinkman(*zeros, 1e-2, 1e-2, 1.0, grid).dissipation == 0.0


class TestUzawaSpace:
    problem = TestBrinkmanWarmStart.problem

    @staticmethod
    def filled(problem):
        space = mchb.flow.UzawaSpace()
        solve_brinkman(*problem, space=space)
        assert space.k > 0
        return space

    def test_cap_leaves_space_empty(self, problem, monkeypatch):
        space = self.filled(problem)
        monkeypatch.setattr(mchb.flow, "MAX_SWEEPS", 1)
        with pytest.raises(FlowSolverError, match="cap"):
            solve_brinkman(problem[0][::-1].copy(), *problem[1:], space=space)
        assert space.k == 0 and space.offset is None

    def test_breakdown_leaves_space_empty(self, problem, monkeypatch):
        space = self.filled(problem)
        precondition = mchb.flow.UzawaSpace.precondition

        def failing(space, r):
            return np.full_like(precondition(space, r), np.nan)

        monkeypatch.setattr(mchb.flow.UzawaSpace, "precondition", failing)
        with pytest.raises(FlowSolverError, match="breakdown"):
            solve_brinkman(problem[0][::-1].copy(), *problem[1:], space=space)
        assert space.k == 0 and space.offset is None

    @pytest.mark.parametrize("drop", ["clear", "key"])
    def test_offset_dropped(self, problem, drop):
        _, _, eta, lam, nu, g = problem
        space = self.filled(problem)
        assert space.offset is not None
        if drop == "clear":
            space.clear()
        else:
            space.build(g, eta, lam, 2.0 * nu)
        assert space.offset is None

    def test_zero_data_skips_projection(self, problem):
        _, _, eta, lam, nu, g = problem
        space = self.filled(problem)
        k, offset = space.k, space.offset
        res = solve_brinkman(np.zeros((2,) + g.shape), np.zeros(g.shape), eta,
                             lam, nu, g, space=space)
        assert np.abs(res.v).max() == 0.0 and np.abs(res.p).max() == 0.0
        assert space.k == k and space.offset is offset

    @pytest.mark.parametrize("change", ["nu", "eta", "lam"])
    def test_space_of_another_system_emptied(self, problem, change):
        force, s_v, eta, lam, nu, g = problem
        space = self.filled(problem)
        args = dict(eta=eta, lam=lam, nu=nu)
        args[change] = 2.0 * args[change]
        got = solve_brinkman(force, s_v, grid=g, space=space, **args)
        fresh = solve_brinkman(force, s_v, grid=g, **args)
        assert_array_equal(got.v, fresh.v)
        assert_array_equal(got.p, fresh.p)
        assert space.k == got.iterations

    def test_stepper_solves_match_solves_without_space(self, monkeypatch):
        pairs = []

        def both(*args, **kwargs):
            got = solve_brinkman(*args, **kwargs)
            kwargs.pop("space")
            pairs.append((got, solve_brinkman(*args, **kwargs)))
            return got

        monkeypatch.setattr(mchb.stepping, "solve_brinkman", both)
        darcy_limit_run(8)
        assert len(pairs) == 8
        assert sum(a.iterations for a, _ in pairs) \
            < sum(b.iterations for _, b in pairs)
        for a, b in pairs:
            assert_close(a.v, b.v, 1e-7)
            assert_close(a.p, b.p, 1e-7)

    def test_restarts_converge_to_the_same_run(self, monkeypatch):
        _, full = darcy_limit_run(8)
        monkeypatch.setattr(mchb.flow, "MAX_DIRECTIONS", 4)
        _, capped = darcy_limit_run(8)
        assert len(capped.reports) == 8 and not capped.aborted
        assert_close(capped.state.v, full.state.v, 1e-7)
        assert_close(capped.state.p, full.state.p, 1e-7)

    def test_recycled_sweeps_fall_and_runs_repeat(self):
        st, first = darcy_limit_run(8)
        iters = [r.flow_iterations for r in first.reports]
        assert max(iters[5:]) <= 2, iters
        again = st.run(state=build_initial_state(st.config, st.bundle))
        assert again.reports == first.reports
        for name in ("phi", "mu", "sigma", "v", "p"):
            assert_array_equal(getattr(again.state, name),
                               getattr(first.state, name))

    @staticmethod
    def recorded_cancellation(monkeypatch):
        """Per Gram-Schmidt call, the norm left over the norm given."""
        orthogonalize, ratios = mchb.flow._orthogonalize, []

        def recorded(W, Z, w, z):
            given = np.linalg.norm(w)
            left = orthogonalize(W, Z, w, z)
            ratios.append(left / given)
            return left

        monkeypatch.setattr(mchb.flow, "_orthogonalize", recorded)
        return ratios

    @staticmethod
    def orthonormality_defect(space):
        W = space.W[:space.k]
        return np.abs(W @ W.T - np.eye(space.k)).max()

    def test_directions_stay_orthonormal_over_a_run(self, monkeypatch):
        ratios = self.recorded_cancellation(monkeypatch)
        st, summary = darcy_limit_run(24)
        assert len(summary.reports) == 24 and not summary.aborted
        space = st._uzawa_space
        assert space.k == len(ratios) > 20
        assert self.orthonormality_defect(space) <= 1e-12

    def test_a_cancelling_direction_is_orthogonalized_twice(self, problem,
                                                           monkeypatch):
        # a preconditioned residual pushed almost into span Z adds the same
        # direction to the space, but one pass leaves ~1e-6 of w, and a
        # single pass would lose orthogonality at about 1e-10
        space = self.filled(problem)
        precondition = mchb.flow.UzawaSpace.precondition

        def nearly_in_span(owner, r):
            z = precondition(owner, r)
            kept = space.Z[:space.k].sum(axis=0)
            return z + 1e6 * np.linalg.norm(z) / np.linalg.norm(kept) * kept

        ratios = self.recorded_cancellation(monkeypatch)
        monkeypatch.setattr(mchb.flow.UzawaSpace, "precondition",
                            nearly_in_span)
        force = problem[0][::-1].copy()
        got = solve_brinkman(force, *problem[1:], space=space)
        assert len(ratios) == got.iterations > 1
        # every sweep cancels, so every one takes the second pass
        assert max(ratios) < np.sqrt(0.5)
        assert self.orthonormality_defect(space) <= 1e-12


class TestKortewegForce:
    def test_constant_fields_give_zero(self, grid):
        phi = np.full((3,) + grid.shape, 0.3)
        mu = np.full((3,) + grid.shape, 1.7)
        sig = np.full((1,) + grid.shape, 0.8)
        nsig = np.full((1,) + grid.shape, -0.4)
        f = korteweg_force(phi, mu, sig, nsig, grid)
        assert np.abs(f).max() == 0.0

    def test_zero_potentials_give_zero(self, grid):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal((3,) + grid.shape)
        sig = rng.standard_normal((1,) + grid.shape)
        f = korteweg_force(phi, np.zeros_like(phi), sig, np.zeros_like(sig), grid)
        assert np.abs(f).max() == 0.0

    def test_single_mode_manufactured(self):
        errs = []
        for n in (32, 64, 128):
            grid = Grid(n, n, 1.0, 1.0)
            x, y = grid.cell_axes()
            phi = np.zeros((3,) + grid.shape)
            phi[0] = np.cos(np.pi * x) * np.cos(np.pi * y)
            mu = np.zeros_like(phi)
            mu[0] = 1.0 + 0.5 * np.cos(np.pi * x)
            sig = np.zeros((1,) + grid.shape)
            nsig = np.zeros_like(sig)
            got = korteweg_force(phi, mu, sig, nsig, grid)
            fx = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) * mu[0]
            fy = -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) * mu[0]
            errs.append(l2(got - np.stack([fx, fy]), grid))
        slope = np.polyfit(np.log([1 / 32, 1 / 64, 1 / 128]), np.log(errs), 1)[0]
        assert slope >= 1.8

    def test_centred_differences_with_mirror_walls(self):
        # the force written out: centred differences of a mirror-padded field
        grid = Grid(24, 16, 1.3, 0.7)
        rng = np.random.default_rng(12)
        phi, mu = rng.standard_normal((2, 3) + grid.shape)
        sig, nsig = rng.standard_normal((2, 1) + grid.shape)
        want = np.zeros((2,) + grid.shape)
        for q, w in zip([*phi, *sig], [*mu, *nsig]):
            a = np.pad(q, 1, mode="edge")
            want[0] += (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * grid.hx) * w
            want[1] += (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * grid.hy) * w
        got = korteweg_force(phi, mu, sig, nsig, grid)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("dims", [(37, 16, 2.3, 0.7), (8, 8, 1.0, 1.0),
                                      (64, 64, 1.0, 1.0)])
    def test_work_equals_the_transport_work_against_the_potentials(self, dims):
        # the pairing behind the energy law: with s_v = 0 the force's work
        # against v is the transport's work against (mu, N_sigma)
        grid = Grid(*dims)
        rng = np.random.default_rng(27)
        phi, mu = rng.standard_normal((2, 3) + grid.shape)
        sig, nsig = rng.standard_normal((2, 1) + grid.shape)
        v = rng.standard_normal((2,) + grid.shape)
        zero = np.zeros(grid.shape)
        w_force = float((korteweg_force(phi, mu, sig, nsig, grid) * v).sum())
        terms = np.stack([w * advective_divergence(q, *v, zero, grid)
                          for q, w in zip([*phi, *sig], [*mu, *nsig])])
        gap = abs(w_force - float(terms.sum()))
        assert gap <= 1e-13 * float(np.abs(terms).sum())

    def test_grid_mismatch(self, grid):
        other = Grid(16, 16, 1.0, 1.0)
        with pytest.raises(ValueError):
            korteweg_force(np.zeros((3, 16, 16)), np.zeros((3, 16, 16)),
                           np.zeros((1, 16, 16)), np.zeros((1, 16, 16)), grid)
