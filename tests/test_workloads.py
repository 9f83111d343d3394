"""The benchmark's checks of darcy-limit-64 and mms-ladder pass on the current API."""

import sys
from dataclasses import replace
from pathlib import Path

from mchb.parameters import build_default_scenario
from mchb.state import build_initial_state
from mchb.stepping import TimeStepper

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH)]

import workloads  # noqa: E402


def test_darcy_limit_check_passes_after_a_run():
    # the workload runs at 64x64; its check solves Brinkman at four
    # viscosities on the final state, passing uniform fields positionally
    cfg = replace(build_default_scenario("darcy-limit"), grid_nx=32,
                  grid_ny=32)
    stepper = TimeStepper(cfg)
    summary = stepper.run(state=build_initial_state(cfg, stepper.bundle))
    assert not summary.aborted
    assert workloads.darcy_limit_check(summary.state, stepper.bundle) == []


def test_mms_ladder_round_passes_its_check(tmp_path):
    ladder = workloads.make("mms-ladder", 0, tmp_path)
    ladder.run_round()
    assert [s.name for s in ladder.studies] == [
        "darcy-pressure", "darcy-velocity", "ch-operator",
        "nutrient-operator", "advective-divergence"]
    assert ladder.check_round() == []
