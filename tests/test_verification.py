"""Manufactured-solution studies on short ladders (full ladders in acceptance)."""

import tracemalloc

import numpy as np
import pytest

from mchb import constitutive as cst
from mchb import verification
from mchb.flow import solve_darcy
from mchb.grid import (NEUMANN, Grid, advective_divergence,
                       fv_diffusion_matrix, l2_norm)
from mchb.parameters import build_specs, default_parameters
from mchb.verification import (check_slopes, mms_advection, mms_ch_operator,
                               mms_darcy, mms_nutrient_operator, run_all)

LADDER = (32, 64, 128)
STUDIES = (mms_darcy, mms_ch_operator, mms_nutrient_operator, mms_advection,
           run_all)


def test_darcy_slopes():
    p_study, v_study = mms_darcy(LADDER)
    assert abs(p_study.slope - 2.0) <= 0.2
    assert abs(v_study.slope - 2.0) <= 0.2


def test_ch_operator_slope():
    assert mms_ch_operator(LADDER).slope >= 1.8


def test_nutrient_operator_slope():
    assert mms_nutrient_operator(LADDER).slope >= 1.8


def test_advection_slope():
    assert mms_advection(LADDER).slope >= 1.8


def test_check_slopes_flags_failures():
    p_study, _ = mms_darcy((32, 64))
    p_study.slope = 1.0
    assert check_slopes([p_study]) == ["darcy-pressure"]
    p_study.name = "ch-operator"
    p_study.slope = 1.79
    assert check_slopes([p_study]) == ["ch-operator"]
    p_study.slope = 1.9
    assert check_slopes([p_study]) == []


def test_run_all_assembles_each_laplacian_once(monkeypatch):
    singles = [*mms_darcy(LADDER), mms_ch_operator(LADDER),
               mms_nutrient_operator(LADDER), mms_advection(LADDER)]
    calls = []
    assemble = verification.fv_diffusion_matrix

    def counted(*args):
        calls.append(args[0].nx)
        return assemble(*args)

    built = []
    manufacture = verification._manufactured_phase

    def counted_phase(grid):
        built.append(grid.nx)
        return manufacture(grid)

    monkeypatch.setattr(verification, "fv_diffusion_matrix", counted)
    monkeypatch.setattr(verification, "_manufactured_phase", counted_phase)
    shared = run_all(LADDER)
    assert calls == list(LADDER)
    assert built == list(LADDER)
    assert [s.name for s in shared] == [s.name for s in singles]
    for a, b in zip(shared, singles):
        assert a.ns == b.ns and a.errors == b.errors and a.slope == b.slope


@pytest.mark.parametrize("study", STUDIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("ns", [(64,), (32, 32), (32, 64, 32), (4, 32)])
def test_ladder_without_two_distinct_grids_rejected(study, ns):
    with pytest.raises(ValueError, match="two distinct"):
        study(ns)


# The studies as plain expressions, each full-grid intermediate a new array.
# The studies form the same operations in place, in the same order.

def plain_darcy(n):
    grid = Grid(n, n, 1.0, 1.0)
    x, y = grid.cell_axes()
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
    vx, vy = sx * cy, cx * sy
    force = np.stack([np.pi * cx * sy + vx, np.pi * sx * cy + vy])
    res = solve_darcy(force, 2.0 * np.pi * cx * cy, 1.0, grid, tol=1e-12)
    return (l2_norm(res.p - sx * sy, grid),
            l2_norm(np.stack([res.v[0] - vx, res.v[1] - vy]), grid))


def plain_phase(grid):
    x, y = grid.cell_axes()
    c1 = np.cos(np.pi * x) * np.cos(np.pi * y)
    c2 = np.cos(2.0 * np.pi * x)
    c3 = np.cos(np.pi * y)
    full = lambda *f: np.stack(np.broadcast_arrays(*f))  # noqa: E731
    return (full(0.4 + 0.2 * c1, 0.3 + 0.15 * c2, 0.2 + 0.1 * c3),
            full(-0.2 * 2.0 * np.pi**2 * c1, -0.15 * 4.0 * np.pi**2 * c2,
                 -0.1 * np.pi**2 * c3))


def plain_ch(n):
    m = default_parameters()
    grid = Grid(n, n, 1.0, 1.0)
    a_neu = fv_diffusion_matrix(grid, NEUMANN)[0]
    phi, lap = plain_phase(grid)
    grad = cst.double_well_gradient(phi)
    mu_star = -m.gamma * m.epsilon * lap + m.gamma / m.epsilon * grad
    mu_h = np.stack([
        (m.gamma * m.epsilon * (a_neu @ phi[i].ravel())).reshape(grid.shape)
        + m.gamma / m.epsilon * grad[i] for i in range(3)])
    return l2_norm(mu_h - mu_star, grid)


def plain_nutrient(n):
    chem = build_specs(default_parameters()).chem
    grid = Grid(n, n, 1.0, 1.0)
    a_d = fv_diffusion_matrix(grid, NEUMANN)[0]
    x, y = grid.cell_axes()
    phi, lap_phi = plain_phase(grid)
    cx, c2y = np.cos(np.pi * x), np.cos(2.0 * np.pi * y)
    sigma = 1.0 + 0.3 * cx * c2y
    lap_sigma = -0.3 * 5.0 * np.pi**2 * cx * c2y
    target = chem.chi_sigma * lap_sigma \
        - sum(chem.coupling[0, l] * lap_phi[l] for l in range(3))
    n_sigma = chem.chi_sigma * sigma \
        - sum(chem.coupling[0, l] * phi[l] for l in range(3))
    applied = -(a_d @ n_sigma.ravel()).reshape(grid.shape)
    return l2_norm(applied - target, grid)


def plain_advection(n):
    grid = Grid(n, n, 1.0, 1.0)
    x, y = grid.cell_axes()
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
    q = 0.5 + 0.25 * cx * cy
    qx, qy = -0.25 * np.pi * sx * cy, -0.25 * np.pi * cx * sy
    vx, vy = sx * cy, -0.5 * cx * sy
    div_v = 0.5 * np.pi * cx * cy
    target = qx * vx + qy * vy + q * div_v
    got = advective_divergence(q, vx, vy, div_v, grid)
    return l2_norm(got - target, grid)


def test_errors_equal_the_plain_expressions_bit_for_bit():
    ns = (32, 64)
    darcy = [plain_darcy(n) for n in ns]
    plain = [[e[0] for e in darcy], [e[1] for e in darcy],
             [plain_ch(n) for n in ns], [plain_nutrient(n) for n in ns],
             [plain_advection(n) for n in ns]]
    singles = [*mms_darcy(ns), mms_ch_operator(ns), mms_nutrient_operator(ns),
               mms_advection(ns)]
    for studies in (singles, run_all(ns)):
        assert [s.errors for s in studies] == plain


def test_warm_pass_peak_allocation():
    # one warm pass on the full ladder; the bound is fixed, not tuned
    ns = (32, 64, 128, 256)
    run_all(ns)
    tracemalloc.start()
    try:
        run_all(ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14.8e6
