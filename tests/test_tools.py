"""The comparison of ``tools/agree.py`` on result sets made in the test,
the line count of ``tools/loc.py`` and the mutant list of
``tools/mutants.py``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "agree.py"
_SPEC = importlib.util.spec_from_file_location("agree", _PATH)
agree = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(agree)
_LOC_SPEC = importlib.util.spec_from_file_location(
    "loc", _PATH.with_name("loc.py"))
loc = importlib.util.module_from_spec(_LOC_SPEC)
_LOC_SPEC.loader.exec_module(loc)
_MUTANTS_SPEC = importlib.util.spec_from_file_location(
    "mutants", _PATH.with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_MUTANTS_SPEC)
_MUTANTS_SPEC.loader.exec_module(mutants)


def result_set(seed=0):
    """Random results shaped like ``agree.run_cases`` output, two columns."""
    rng = np.random.default_rng(seed)
    out = {"header": np.array(["t", "E"])}
    for case in agree.CASES:
        name = agree.case_name(*case)
        for f in agree.FIELDS:
            out[f"{name}|{f}"] = rng.standard_normal((2, 4, 4))
        out[f"{name}|report"] = rng.standard_normal((3, 2))
        out[f"{name}|counts"] = rng.integers(1, 9, (3, len(agree.COUNTS)))
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
    # one more phase-solve update in one step: only that count moves
    b[f"{name}|counts"][2, agree.COUNTS.index("picard_iters")] += 1
    result = agree.compare(a, b)
    moved = {(case, k): d for case, items in result.items()
             for k, d in items.items() if d is not None}
    assert set(moved) == {(name, "p"), (name, "E"),
                          (name, "counts|picard_iters")}
    assert 0.0 < moved[name, "p"] <= np.finfo(float).eps
    assert 0.0 < moved[name, "E"] <= np.finfo(float).eps
    lines = agree.format_report(result)
    at = lines.index(name)
    assert lines[at + 1] == (f"  fields: phi ==, mu ==, sigma ==, v ==, "
                             f"p {result[name]['p']:.2e}")
    assert lines[at + 2].startswith("  report: all == except E ")
    assert lines[at + 3] == ("  counts: flow_iterations ==, picard_iters "
                             f"{result[name]['counts|picard_iters']:.2e}")


@pytest.mark.parametrize("a, b, want", [([0.0], [-0.0], 0.0),
                                        ([0.0, 2.0], [1.0, 2.0], 0.5),
                                        ([1.0], [1.0, 1.0], np.inf)])
def test_difference_of_zeros_and_shapes(a, b, want):
    assert agree.difference(a, b) == want


def test_roundoff_report_column_reads_as_an_absolute_difference():
    # a ratio of two round-off values reads about 1 whatever the trees do
    a = result_set()
    name = agree.case_name(*agree.CASES[3])
    a[f"{name}|report"][:, 1] = [3e-17, -1e-17, 2e-17]
    b = copy_of(a)
    b[f"{name}|report"][:, 1] = [-4e-17, 1e-17, 0.0]
    result = agree.compare(a, b)
    d = result[name]["E"]
    assert isinstance(d, agree.Absolute) and d == pytest.approx(7e-17)
    lines = agree.format_report(result)
    assert lines[lines.index(name) + 2] == \
        f"  report: all == except E abs {d:.2e}"


def test_real_change_of_a_roundoff_column_still_shows():
    a = result_set()
    name = agree.case_name(*agree.CASES[3])
    a[f"{name}|report"][:, 1] = [3e-17, -1e-17, 2e-17]
    b = copy_of(a)
    b[f"{name}|report"][1, 1] = 0.5
    result = agree.compare(a, b)
    d = result[name]["E"]
    assert not isinstance(d, agree.Absolute)
    assert d == pytest.approx(1.0)
    lines = agree.format_report(result)
    assert lines[lines.index(name) + 2] == f"  report: all == except E {d:.2e}"


def identity_case(residuals_a, residuals_b):
    """Two result sets whose mms case steps ``E = -1.5`` at ``dt = 2e-6``
    and whose identity residuals differ as given."""
    a = result_set()
    a["header"] = np.array(["t", "dt", "E", "identity_residual"])
    name = agree.case_name(*agree.CASES[3])
    for case in agree.CASES:
        rows = np.zeros((3, 4))
        rows[:, 0] = [2e-6, 4e-6, 6e-6]
        rows[:, 1] = 2e-6
        rows[:, 2] = -1.5
        a[f"{agree.case_name(*case)}|report"] = rows
    b = copy_of(a)
    a[f"{name}|report"][:, 3] = residuals_a
    b[f"{name}|report"][:, 3] = residuals_b
    return agree.compare(a, b)[name]


def test_identity_residual_at_one_ulp_of_e_over_dt_reads_absolute():
    # one ulp of E = -1.5 over dt is 1.1e-10, far above ROUNDOFF * 1.5
    ulp = np.spacing(1.5) / 2e-6
    d = identity_case([0.0, ulp, 0.0], [0.0, 0.0, 0.0])["identity_residual"]
    assert isinstance(d, agree.Absolute) and d == pytest.approx(ulp)


def test_identity_residual_above_its_floor_reads_relative():
    floor = agree.IDENTITY_ULPS * np.finfo(float).eps * 1.5 / 2e-6
    d = identity_case([0.0, 2 * floor, 0.0], [0.0, 0.0, 0.0])[
        "identity_residual"]
    assert not isinstance(d, agree.Absolute) and d == 1.0


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


LOC_SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment
# a comment line


class C:
    """Class docstring."""

    def f(self, a,
          b):
        """Function docstring,
        over two lines."""
        text = """a string
        over two lines"""
        return (a +
                b + len(text))
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, class, the two def lines, the two string lines and the two
    # lines of the continued return
    assert loc.code_lines(LOC_SAMPLE) == 8
    assert loc.code_lines("") == 0
    assert loc.table({"a": {"m.py": 3, "n.py": 4}, "b": {"m.py": 2}}) == [
        "module           a           b",
        "m.py             3           2",
        "n.py             4           -",
        "total            7           2"]


def test_every_mutant_old_text_occurs_once_in_src():
    # an edit of the source that moves an old text fails here, so the fixed
    # list cannot rot into mutants that no longer apply
    root = Path(__file__).resolve().parents[1]
    for path, old, new, what, _ in mutants.MUTANTS:
        assert path.startswith("src/") and old != new, what
        assert (root / path).read_text(encoding="utf-8").count(old) == 1, what
    assert mutants.killer("x\nFAILED tests/a.py::t - AssertionError\n") \
        == "tests/a.py::t"
