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
