"""Manufactured-solution studies on short ladders (full ladders in acceptance)."""

from mchb import verification
from mchb.verification import (check_slopes, mms_advection, mms_ch_operator,
                               mms_darcy, mms_nutrient_operator, run_all)

LADDER = (32, 64, 128)


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

    monkeypatch.setattr(verification, "fv_diffusion_matrix", counted)
    shared = run_all(LADDER)
    assert calls == list(LADDER)
    assert [s.name for s in shared] == [s.name for s in singles]
    for a, b in zip(shared, singles):
        assert a.ns == b.ns and a.errors == b.errors and a.slope == b.slope
