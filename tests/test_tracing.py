"""The benchmark's span tracer still finds every mchb name it wraps."""

import sys
from dataclasses import replace
from pathlib import Path

import scipy.sparse.linalg as spla

from mchb.parameters import build_default_scenario
from mchb.state import build_initial_state
from mchb.stepping import TimeStepper

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH)]

import tracing  # noqa: E402


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_records_a_step_and_restores_every_original():
    cfg = replace(build_default_scenario("darcy-limit"), grid_nx=16, grid_ny=16)
    stepper = TimeStepper(cfg)
    state = build_initial_state(cfg, stepper.bundle)
    originals = [(owner, attr, current(owner, attr))
                 for owner, attr, _, _ in tracing._targets()]
    step, splu = TimeStepper.step, spla.splu
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stepper.step(state, cfg.dt)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"stepping.step", "flow.solve"} <= names
    assert TimeStepper.step is step and spla.splu is splu
    for owner, attr, orig in originals:
        assert current(owner, attr) is orig, attr
