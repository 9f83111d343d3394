"""The comparison of ``tools/agree.py`` on result sets made in the test."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "agree.py"
_SPEC = importlib.util.spec_from_file_location("agree", _PATH)
agree = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(agree)


def result_set(seed=0):
    """Random results shaped like ``agree.run_cases`` output, two columns."""
    rng = np.random.default_rng(seed)
    out = {"header": np.array(["t", "E"])}
    for case in agree.CASES:
        name = agree.case_name(*case)
        for f in agree.FIELDS:
            out[f"{name}|{f}"] = rng.standard_normal((2, 4, 4))
        out[f"{name}|report"] = rng.standard_normal((3, 2))
        out[f"{name}|counts"] = rng.integers(1, 9, (3, 3))
    return out


def copy_of(res):
    return {k: v.copy() for k, v in res.items()}


def test_equal_sets_are_equal_everywhere():
    a = result_set()
    result = agree.compare(a, copy_of(a))
    assert len(result) == len(agree.CASES)
    assert all(d is None for items in result.values() for d in items.values())
    lines = agree.format_report(result)
    assert all(line.endswith("==") for line in lines if line.startswith("  "))


def test_one_ulp_shows_where_it_moved():
    a = result_set()
    b = copy_of(a)
    name = agree.case_name(*agree.CASES[2])
    b[f"{name}|p"].flat[5] = np.nextafter(a[f"{name}|p"].flat[5], np.inf)
    b[f"{name}|report"][1, 1] = np.nextafter(a[f"{name}|report"][1, 1], 0.0)
    result = agree.compare(a, b)
    moved = {(case, k): d for case, items in result.items()
             for k, d in items.items() if d is not None}
    assert set(moved) == {(name, "p"), (name, "E")}
    assert all(0.0 < d <= np.finfo(float).eps for d in moved.values())
    lines = agree.format_report(result)
    at = lines.index(name)
    assert lines[at + 1] == (f"  fields: phi ==, mu ==, sigma ==, v ==, "
                             f"p {result[name]['p']:.2e}")
    assert lines[at + 2].startswith("  report: all == except E ")
    assert lines[at + 3] == "  counts: =="


@pytest.mark.parametrize("a, b, want", [([0.0], [-0.0], 0.0),
                                        ([0.0, 2.0], [1.0, 2.0], 0.5),
                                        ([1.0], [1.0, 1.0], np.inf)])
def test_difference_of_zeros_and_shapes(a, b, want):
    assert agree.difference(a, b) == want


MMS_STUDIES = ("darcy-pressure", "darcy-velocity", "ch-operator",
               "nutrient-operator", "advective-divergence")


def mms_set(seed=0):
    """Random study errors shaped like the ``mms|`` entries of a result set."""
    rng = np.random.default_rng(seed)
    return {f"mms|{name}": rng.random(len(agree.MMS_LADDER))
            for name in MMS_STUDIES}


def test_mms_errors_compare_per_study():
    a = {**result_set(), **mms_set()}
    b = copy_of(a)
    assert agree.compare_mms(a, b) == dict.fromkeys(MMS_STUDIES)
    assert agree.format_mms(agree.compare_mms(a, b)) == [
        "mms ladder 32/64/128/256",
        "  errors: " + ", ".join(f"{s} ==" for s in MMS_STUDIES)]
    b["mms|ch-operator"][2] = np.nextafter(a["mms|ch-operator"][2], 1.0)
    del b["mms|advective-divergence"]
    moved = {k: d for k, d in agree.compare_mms(a, b).items()
             if d is not None}
    assert set(moved) == {"ch-operator", "advective-divergence"}
    assert 0.0 < moved["ch-operator"] <= np.finfo(float).eps
    assert moved["advective-divergence"] == np.inf


def large_set(seed=0, count=3):
    """Random results shaped like the ``large|`` entries of a result set."""
    rng = np.random.default_rng(seed)
    out = {}
    for k in range(count):
        out[f"large|{k}|name"] = np.array(f"large-dt {k}: 8x8")
        out[f"large|{k}|outcome"] = np.array([False, 0])
        for f in agree.FIELDS:
            out[f"large|{k}|{f}"] = rng.standard_normal((2, 4, 4))
    return out


def test_large_step_runs_compare_outcome_and_fields():
    a = large_set()
    b = copy_of(a)
    assert agree.format_large(agree.compare_large(a, b)) == [
        line for k in range(3) for line in (
            f"large-dt {k}: 8x8",
            "  aborted False/False, halvings 0/0; fields: "
            + ", ".join(f"{f} ==" for f in agree.FIELDS))]
    b["large|1|outcome"] = np.array([True, 5])
    b["large|2|sigma"].flat[3] = np.nextafter(a["large|2|sigma"].flat[3], 9.0)
    result = agree.compare_large(a, b)
    assert result["large-dt 1: 8x8"]["outcome"] == ((False, 0), (True, 5))
    assert 0.0 < result["large-dt 2: 8x8"]["sigma"] <= np.finfo(float).eps
    lines = agree.format_large(result)
    assert lines[3].startswith("  aborted False/True, halvings 0/5; fields: ")
    assert lines[5].endswith(f"sigma {result['large-dt 2: 8x8']['sigma']:.2e}"
                             ", v ==, p ==")


def test_large_step_set_draws_both_wall_closures_at_large_steps():
    from mchb.parameters import default_dt

    configs = list(agree.large_step_configs())
    assert len(configs) == 24
    assert {cfg.model.K == 0.0 for cfg in configs} == {True, False}
    assert all(1.0 <= cfg.dt / default_dt(cfg.model) <= 1000.0
               and cfg.t_end == 3 * cfg.dt for cfg in configs)
    assert [agree.large_step_name(k, cfg) for k, cfg in enumerate(configs)] \
        == [agree.large_step_name(k, cfg) for k, cfg in
            enumerate(agree.large_step_configs())]
