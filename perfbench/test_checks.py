"""Tests of the benchmark's own checks: each must reject a wrong output.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402


def test_energy_non_increasing_rejects_a_rise():
    e = [2.0, 1.5, 1.2, 1.0]
    assert checks.energy_non_increasing(e) == []
    assert checks.energy_non_increasing([2.0, 2.0 + 1e-9, 1.0]) == []  # within tol
    assert checks.energy_non_increasing([2.0, 1.5, 1.5 + 1e-6, 1.0])


def test_energy_strictly_decreasing_rejects_a_plateau():
    assert checks.energy_strictly_decreasing([3.0, 2.0, 1.0]) == []
    assert checks.energy_strictly_decreasing([3.0, 2.0, 2.0])
    assert checks.energy_strictly_decreasing([3.0, 2.0, 2.0 + 1e-15])


def test_bookkeeping_and_mass_drift():
    rng = np.random.default_rng(0)
    phi = rng.uniform(0.0, 0.3, (3, 32, 32))
    defect = checks.bookkeeping_defect(phi, 1.0 / 32**2, 1.0)
    assert defect <= 1e-14
    assert checks.bookkeeping([defect, 0.0]) == []
    assert checks.bookkeeping([0.0, 1e-12])
    assert checks.bookkeeping([float("nan")])
    m = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3 + 1e-10]])
    assert checks.mass_drift(m) == []
    assert checks.mass_drift(m + np.array([[0, 0, 0], [1e-8, 0, 0]]))


def test_all_finite():
    assert checks.all_finite([True, True]) == []
    assert checks.all_finite([True, False])


def test_raw_energy_matches_the_package_and_rejects_a_wrong_one():
    from dataclasses import replace

    from mchb.diagnostics import free_energy
    from mchb.parameters import build_default_scenario
    from mchb.state import build_initial_state
    from mchb.stepping import TimeStepper

    for seed in (1, 2):
        cfg = replace(build_default_scenario("zero-source"), grid_nx=16,
                      grid_ny=16, seed=seed)
        stepper = TimeStepper(cfg)
        state = build_initial_state(cfg, stepper.bundle)
        state, rep = stepper.step(state, cfg.dt)
        m, g = cfg.model, stepper.grid
        raw = checks.raw_free_energy(
            state.phi, state.sigma, g.hx, g.hy, gamma=m.gamma,
            epsilon=m.epsilon, chi_sigma=m.chi_sigma,
            coupling=np.array([m.chi_phi, -m.alpha, -m.beta]),
            a_vec=np.array([0.0, m.alpha * m.c_q, m.beta * m.c_n]))
        assert checks.energy_matches(rep.energy_after, raw) == []
        assert checks.energy_matches(free_energy(state, stepper.bundle)[0], raw) == []
        assert checks.energy_matches(rep.energy_after * (1 + 1e-9), raw)


def test_darcy_limit_rejects_a_non_decreasing_gap_or_residual():
    etas = [1e-1, 1e-2, 1e-3, 1e-4]
    gaps = [0.5, 0.05, 0.005, 0.0005]
    res = [1.0, 0.1, 0.01, 0.001]
    assert checks.darcy_limit(etas, gaps, res, 1.0) == []
    assert checks.darcy_limit(etas[::-1], gaps[::-1], res[::-1], 1.0) == []
    assert checks.darcy_limit(etas, [0.5, 0.05, 0.05, 0.0005], res, 1.0)
    assert checks.darcy_limit(etas, gaps, [1.0, 0.1, 0.2, 0.001], 1.0)
    assert checks.darcy_limit(etas, gaps, res, 0.1)   # relative gap 5e-3


def test_darcy_limit_check_holds_on_seeded_states(tmp_path):
    import workloads

    for seed in (1, 2):
        wl = workloads.Stepping("darcy-limit-64", seed, tmp_path)
        assert workloads.darcy_limit_check(wl.initial, wl.stepper.bundle) == []


def test_mms_slopes_reject_a_first_order_rung():
    ns = [32, 64, 128, 256]
    second = [1.0 / n**2 for n in ns]
    assert checks.mms_slopes([("darcy-pressure", ns, second),
                              ("ch-operator", ns, second)]) == []
    first = [1.0 / n for n in ns]
    assert checks.mms_slopes([("ch-operator", ns, first)])
    # one rung of first-order accuracy pulls the fitted slope out of the window
    bad_rung = second[:-1] + [second[-2] / 2.0]
    assert checks.mms_slopes([("darcy-velocity", ns, bad_rung)])
    # Darcy must sit near 2 from both sides, the others only from below
    steep = [1.0 / n**2.5 for n in ns]
    assert checks.mms_slopes([("darcy-pressure", ns, steep)])
    assert checks.mms_slopes([("nutrient-operator", ns, steep)]) == []


def _write_report(path, header, rows):
    path.write_text("\n".join([",".join(header)]
                              + [",".join(r) for r in rows]) + "\n")


def test_csv_report_rejects_wrong_header_rows_or_energies(tmp_path):
    row = ["1"] * len(checks.CSV_HEADER)
    good = tmp_path / "good.csv"
    _write_report(good, checks.CSV_HEADER, [row, row])
    assert checks.csv_report(good, 2, np.array([1.0, 1.0])) == []
    assert checks.csv_report(good, 3)
    assert checks.csv_report(good, 2, np.array([1.0, 0.5]))
    bad = tmp_path / "bad.csv"
    _write_report(bad, checks.CSV_HEADER[:-1] + ["picard"], [row, row])
    assert checks.csv_report(bad, 2)
    _write_report(bad, checks.CSV_HEADER, [row, row[:-1] + ["x"]])
    assert checks.csv_report(bad, 2)


def test_snapshot_rejects_wrong_shape_or_content():
    stack = np.zeros((10, 8, 8))
    assert checks.snapshot(stack, (8, 8), stack.copy()) == []
    assert checks.snapshot(stack[:9], (8, 8))
    other = stack.copy()
    other[3, 2, 1] = 1e-300
    assert checks.snapshot(stack, (8, 8), other)


def test_self_time_sum_rejects_a_missing_layer():
    assert checks.self_time_sum(100.0, [1.0, 80.0, 19.0]) == []
    assert checks.self_time_sum(100.0, [1.0, 80.0])


def test_layer_split_counts_and_sums():
    import tracing

    S = tracing.Span
    spans = [
        S("parameters.scenario", -1, 0.0, 0.1),
        S("parameters.specs", -1, 0.1, 0.15),
        S("state.initial", -1, 0.15, 0.2),
        S("stepping.step", -1, 1.0, 2.0),
        S("constitutive.mobility", 3, 1.0, 1.1),
        S("stepping.ch", 3, 1.1, 1.7),
        S("scipy.splu", 5, 1.1, 1.5),
        S("scipy.lu_solve", 5, 1.5, 1.6),
        S("scipy.lu_solve", 5, 1.6, 1.65),
        S("stepping.nutrient", 3, 1.7, 1.8, count=7),
        S("grid.assembly", 9, 1.7, 1.75),
        S("diagnostics.free_energy", 3, 1.8, 1.95),
        S("constitutive.potential_eval", 11, 1.8, 1.85),
    ]
    m, problems = tracing.layer_split(spans, "stepping.step", 3, 0.0)
    assert problems == []
    assert m["stepping.step_ms"] == pytest.approx(1000.0)
    assert m["stepping.self_ms"] == pytest.approx(50.0)
    assert m["stepping.ch_factorizations"] == 1
    assert m["stepping.ch_lu_solves"] == 2
    assert m["stepping.nutrient_cg_iters"] == 7
    assert m["grid.assemblies"] == 1
    assert m["constitutive.calls"] == 1        # the one inside diagnostics is not
    assert m["diagnostics.free_energy_calls"] == 1
    assert m["parameters.ms"] == pytest.approx(150.0)
    assert m["state.initial_ms"] == pytest.approx(50.0)
    # a step whose child escaped every reported layer fails the sum check
    spans[4] = S("unlisted.call", 3, 1.0, 1.1)
    _, problems = tracing.layer_split(spans, "stepping.step", 3, 0.0)
    assert problems
