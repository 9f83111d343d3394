"""Flow solves: Darcy, Brinkman, the vanishing-viscosity bridge, forces."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.testing import assert_array_equal
from scipy.sparse.linalg import spsolve

import mchb.cli
import mchb.flow
from mchb.cli import run_darcy_sweep
from mchb.parameters import build_default_scenario
from mchb.state import build_initial_state
from mchb.stepping import TimeStepper

from mchb.grid import DIRICHLET, EXTRAPOLATE, Field, Grid, cell_gradient, \
    cell_gradient_matrix, fv_diffusion_matrix
from mchb.flow import (BrinkmanOptions, FlowSolverError, darcy_residual,
                       korteweg_force, solve_brinkman, solve_darcy)


def l2(a, grid):
    return float(np.sqrt((np.asarray(a)**2).sum() * grid.cell_area))


@pytest.fixture
def grid():
    return Grid(48, 48, 1.0, 1.0)


def manufactured(grid, nu=1.0):
    x, y = grid.cell_centers()
    p = np.sin(np.pi * x) * np.sin(np.pi * y)
    vx = np.sin(np.pi * x) * np.cos(np.pi * y)
    vy = np.cos(np.pi * x) * np.sin(np.pi * y)
    s_v = 2.0 * np.pi * np.cos(np.pi * x) * np.cos(np.pi * y)
    gpx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    gpy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    force = np.stack([gpx + nu * vx, gpy + nu * vy])
    return p, np.stack([vx, vy]), s_v, force


class TestDarcy:
    def test_zero_inputs(self, grid):
        res = solve_darcy(np.zeros((2,) + grid.shape), np.zeros(grid.shape),
                          1.0, grid)
        assert np.abs(res.v).max() == 0.0 and np.abs(res.p).max() == 0.0

    def test_gradient_force_absorbed_by_pressure(self, grid):
        x, y = grid.cell_centers()
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
        x, y = grid.cell_centers()
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

    def test_variable_viscosity_path(self, grid):
        _, _, s_v, force = manufactured(grid)
        x, y = grid.cell_centers()
        eta = 0.05 * (1.0 + 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y))
        lam = 0.5 * eta
        res = solve_brinkman(force, s_v, eta, lam, 1.0, grid,
                             BrinkmanOptions(tol=1e-10))
        assert res.momentum_residual < 1e-9
        assert res.div_residual < 1.0  # consistent with the O(h^2) bound

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
            vx = Field(res.v[0], EXTRAPOLATE, grid)
            vy = Field(res.v[1], EXTRAPOLATE, grid)
            uxx, uxy = cell_gradient(vx)
            vyx, vyy = cell_gradient(vy)
            d12 = 0.5 * (uxy + vyx)
            dv2 = uxx**2 + vyy**2 + 2 * d12**2
            divv = uxx + vyy
            lhs = ((2 * eta * dv2 + eta * divv**2 + res.v[0]**2 + res.v[1]**2)
                   .sum() * grid.cell_area)
            rhs = ((force * res.v).sum() + (res.p * s_v).sum()) * grid.cell_area
            mism.append(abs(lhs - rhs) / abs(rhs))
        assert mism[0] < 0.05
        assert mism[1] < mism[0]

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
        assert factorizations == [] and space.system is None


    @pytest.mark.parametrize("target,value", [("eta", np.nan),
                                              ("eta", np.inf),
                                              ("eta", -1.0),
                                              ("lam", np.nan),
                                              ("lam", np.inf),
                                              ("lam", -1.0)])
    def test_bad_viscosity_raises_before_building(self, monkeypatch, target,
                                                  value):
        # assumption A3: finite eta > 0 and lam >= 0
        grid = Grid(16, 16, 1.0, 1.0)
        _, _, s_v, force = manufactured(grid)
        visc = {"eta": np.full(grid.shape, 0.1), "lam": np.full(grid.shape, 0.1)}
        visc[target][3, 5] = value
        space = mchb.flow.UzawaSpace()
        factorizations = count_factorizations(monkeypatch)
        with pytest.raises(ValueError, match="viscosity"):
            solve_brinkman(force, s_v, visc["eta"], visc["lam"], 1.0, grid,
                           space=space)
        assert factorizations == [] and space.system is None


def count_factorizations(monkeypatch):
    calls = []
    orig = spla.splu

    def wrapper(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", wrapper)
    return calls


class TestBrinkmanSystemReuse:
    @pytest.fixture
    def problem(self):
        grid = Grid(24, 24, 1.0, 1.0)
        _, _, s_v, force = manufactured(grid)
        x, y = grid.cell_centers()
        modulated = 0.05 * (1.0 + 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y))
        return grid, force, s_v, modulated

    def test_warm_call_matches_cold_call(self, problem, monkeypatch):
        grid, force, s_v, _ = problem
        eta = np.full(grid.shape, 0.05)
        args = (force, s_v, eta, eta, 1.0, grid)
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
        grid, force, s_v, _ = problem
        eta = np.full(grid.shape, 0.05)
        space = mchb.flow.UzawaSpace()
        solve_brinkman(force, s_v, eta, eta, 1.0, grid, space=space)
        factorizations = count_factorizations(monkeypatch)
        solve_brinkman(force, s_v, eta, eta, 2.0, grid, space=space)
        solve_brinkman(force, s_v, eta, 0.5 * eta, 2.0, grid, space=space)
        assert len(factorizations) == 2

    def test_eta_mutated_in_place_rebuilds(self, problem, monkeypatch):
        grid, force, s_v, _ = problem
        eta = np.full(grid.shape, 0.05)
        lam = eta.copy()
        space = mchb.flow.UzawaSpace()
        solve_brinkman(force, s_v, eta, lam, 1.0, grid, space=space)
        eta[: grid.ny // 2] *= 2.0
        factorizations = count_factorizations(monkeypatch)
        got = solve_brinkman(force, s_v, eta, lam, 1.0, grid, space=space)
        assert len(factorizations) == 1
        fresh = solve_brinkman(force, s_v, eta.copy(), lam, 1.0, grid)
        assert_array_equal(got.v, fresh.v)
        assert_array_equal(got.p, fresh.p)

    def test_modulated_viscosity_rebuilt_every_call(self, problem,
                                                    monkeypatch):
        grid, force, s_v, modulated = problem
        fields = (modulated, modulated[::-1].copy())
        fresh = [solve_brinkman(force, s_v, e, 0.5 * e, 1.0, grid)
                 for e in fields]
        space = mchb.flow.UzawaSpace()
        factorizations = count_factorizations(monkeypatch)
        for k in (0, 1, 0, 1):
            got = solve_brinkman(force, s_v, fields[k], 0.5 * fields[k], 1.0,
                                 grid, space=space)
            assert_array_equal(got.v, fresh[k].v)
            assert_array_equal(got.p, fresh[k].p)
        assert len(factorizations) == 4

    def test_threads_never_see_a_wrong_operator(self, problem):
        grid, force, s_v, modulated = problem
        fields = (np.full(grid.shape, 0.05), modulated, 2.0 * modulated)
        fresh = [solve_brinkman(force, s_v, e, e, 1.0, grid) for e in fields]

        def worker(offset):
            for k in range(6):
                j = (k + offset) % len(fields)
                got = solve_brinkman(force, s_v, fields[j], fields[j], 1.0,
                                     grid)
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_keeps_the_levels_before_a_failure(self, monkeypatch, jobs):
        cfg = dataclasses.replace(build_default_scenario("darcy-limit"),
                                  grid_nx=16, grid_ny=16)
        solve = mchb.cli.solve_brinkman

        def fail_at_1e_3(force, s_v, eta, *args, **kwargs):
            if eta.flat[0] == 1e-3:
                raise FlowSolverError("injected")
            return solve(force, s_v, eta, *args, **kwargs)

        monkeypatch.setattr(mchb.cli, "solve_brinkman", fail_at_1e_3)
        full = run_darcy_sweep(cfg, (1e-1, 1e-2), jobs=jobs, snapshot_steps=1)
        got = run_darcy_sweep(cfg, (1e-4, 1e-1, 1e-3, 1e-2), jobs=jobs,
                              snapshot_steps=1)
        assert got.partial and not full.partial
        assert got.eta_levels == [1e-1, 1e-2]
        assert got.velocity_gaps == full.velocity_gaps


def darcy_limit_stepper(n=32):
    cfg = dataclasses.replace(build_default_scenario("darcy-limit"),
                              grid_nx=n, grid_ny=n)
    return cfg, TimeStepper(cfg)


class TestBrinkmanWarmStart:
    @pytest.fixture
    def problem(self):
        cfg, st = darcy_limit_stepper()
        g = st.grid
        visc = st.bundle.viscosity
        x, y = g.cell_centers()
        force = np.stack([np.sin(np.pi * x) * np.cos(np.pi * y),
                          -np.cos(2 * np.pi * x) * np.sin(np.pi * y)])
        s_v = 0.1 * np.cos(np.pi * x) * np.cos(np.pi * y)
        return (force, s_v, np.full(g.shape, visc.eta0),
                np.full(g.shape, visc.lambda0), cfg.model.nu, g)

    def test_symmetric_mode_lu_matches_direct_solve(self, problem):
        _, _, eta, lam, nu, g = problem
        system = mchb.flow._brinkman_system(g, eta, lam, nu)
        b = np.random.default_rng(0).standard_normal(2 * g.ncells)
        ref = spsolve(system.K, b)
        got = system.k_lu.solve(b)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_perturbed_guess_matches_cold_solve(self, problem):
        g = problem[-1]
        opts = BrinkmanOptions(tol=1e-9)
        cold = solve_brinkman(*problem, opts)
        x, y = g.cell_centers()
        guess = cold.p + 0.1 * np.abs(cold.p).max() \
            * np.sin(3 * np.pi * x) * np.sin(2 * np.pi * y)
        warm = solve_brinkman(*problem, opts, p0=guess)
        # the velocity inherits the constraint tolerance; the pressure error
        # is the Schur operator's conditioning times it
        assert l2(warm.v - cold.v, g) <= opts.tol * l2(cold.v, g)
        assert l2(warm.p - cold.p, g) <= 1e-7 * l2(cold.p, g)

    def test_converged_guess_takes_one_sweep(self, problem):
        cold = solve_brinkman(*problem)
        again = solve_brinkman(*problem, p0=cold.p.ravel())
        assert cold.iterations > 1 and again.iterations == 1
        assert np.abs(again.v - cold.v).max() <= 1e-12 * np.abs(cold.v).max()

    def test_guess_on_zero_data_returns_zero(self, problem):
        _, _, eta, lam, nu, g = problem
        guess = np.random.default_rng(1).standard_normal(g.shape)
        res = solve_brinkman(np.zeros((2,) + g.shape), np.zeros(g.shape), eta,
                             lam, nu, g, p0=guess)
        assert np.abs(res.v).max() == 0.0 and np.abs(res.p).max() == 0.0

    @pytest.mark.parametrize("guess", [np.zeros((31, 32)), np.zeros(32 * 33),
                                       np.full((32, 32), np.nan)])
    def test_malformed_guess_rejected(self, problem, guess):
        with pytest.raises(ValueError):
            solve_brinkman(*problem, p0=guess)

    def test_stepper_warm_start_saves_sweeps(self):
        cfg, st = darcy_limit_stepper()
        _, ref = darcy_limit_stepper()
        warm = cold = build_initial_state(cfg, st.bundle)
        iters = []
        for _ in range(5):
            warm, rep = st.step(warm, cfg.dt)
            iters.append(rep.flow_iterations)
            ref._uzawa_space.clear()
            cold, _ = ref.step(dataclasses.replace(cold, p=np.zeros(cold.p.shape)),
                               cfg.dt)
        assert all(k < iters[0] for k in iters[1:]), iters
        for a, b in ((warm.v, cold.v), (warm.p, cold.p)):
            assert np.abs(a - b).max() <= 1e-7 * np.abs(b).max()


def darcy_limit_run(steps, n=32):
    cfg = build_default_scenario("darcy-limit")
    cfg = dataclasses.replace(cfg, grid_nx=n, grid_ny=n, t_end=steps * cfg.dt)
    st = TimeStepper(cfg)
    return st, st.run(state=build_initial_state(cfg, st.bundle))


def assert_close(a, b, rel):
    assert np.abs(a - b).max() <= rel * np.abs(b).max()


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
        assert space.k == 0

    def test_breakdown_leaves_space_empty(self, problem, monkeypatch):
        space = self.filled(problem)
        calls = []
        idstn = mchb.flow.idstn

        def failing(*args, **kwargs):
            calls.append(1)
            out = idstn(*args, **kwargs)
            return out if len(calls) < 3 else np.full_like(out, np.nan)

        monkeypatch.setattr(mchb.flow, "idstn", failing)
        with pytest.raises(FlowSolverError, match="breakdown"):
            solve_brinkman(problem[0][::-1].copy(), *problem[1:], space=space)
        assert space.k == 0

    def test_zero_data_skips_projection(self, problem):
        _, _, eta, lam, nu, g = problem
        space = self.filled(problem)
        guess = np.random.default_rng(1).standard_normal(g.shape)
        res = solve_brinkman(np.zeros((2,) + g.shape), np.zeros(g.shape), eta,
                             lam, nu, g, p0=guess, space=space)
        assert np.abs(res.v).max() == 0.0 and np.abs(res.p).max() == 0.0

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
            x, y = grid.cell_centers()
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

    def test_grid_mismatch(self, grid):
        other = Grid(16, 16, 1.0, 1.0)
        with pytest.raises(ValueError):
            korteweg_force(np.zeros((3, 16, 16)), np.zeros((3, 16, 16)),
                           np.zeros((1, 16, 16)), np.zeros((1, 16, 16)), grid)
