"""Whole-run properties over small scenario configurations (Hypothesis).

Each example is a 3-step run of a small configuration: 8 to 16 cells a
side, either flow backend, flow and sources each on or off, every initial
condition and source variant, a no-flux or a Robin nutrient wall, and a
step of 10**(k/10) times the preset's default, k from -10 to 30, so from
0.1 to 1000 times. The example count is
fixed and the search derandomized, so every run of the suite draws the
same configurations.  The search never draws the top of that range, so two
explicit examples run at 1000 times the default step: darcy-limit with
Brinkman flow and sources on, and zero-source with both off, where the
mass and energy laws are asserted.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mchb.diagnostics import component_masses
from mchb.parameters import build_default_scenario
from mchb.state import build_initial_state
from mchb.stepping import TimeStepper

EPS = np.finfo(float).eps


@st.composite
def small_configs(draw):
    cfg = build_default_scenario(draw(st.sampled_from(
        ["stratified-tumor", "zero-source", "darcy-limit"])))
    n = draw(st.integers(8, 16))
    # the exponent in tenths, from a fixed list: an integer or float
    # strategy draws its simplest value, dt = dt0, in a fifth or more of runs
    dt = cfg.dt * 10.0 ** (draw(st.sampled_from(range(-10, 31))) / 10)
    return dataclasses.replace(
        cfg, model=dataclasses.replace(
            cfg.model, K=draw(st.sampled_from([0.0, 1.0]))),
        grid_nx=n, grid_ny=n, dt=dt, t_end=3 * dt,
        flow_backend=draw(st.sampled_from(["darcy", "brinkman"])),
        flow_enabled=draw(st.booleans()),
        sources_enabled=draw(st.booleans()),
        source_variant=draw(st.sampled_from(["linear", "interfacial"])),
        initial_condition=draw(st.sampled_from(
            ["stratified", "random-smooth", "uniform"])),
        seed=draw(st.integers(0, 999))).validate()


def at_1000_dt0(preset, **changes):
    """A 16x16, 3-step run of ``preset`` at 1000 times its default step."""
    cfg = build_default_scenario(preset)
    dt = 1000.0 * cfg.dt
    return dataclasses.replace(cfg, grid_nx=16, grid_ny=16, dt=dt,
                               t_end=3 * dt, **changes).validate()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cfg=small_configs())
@example(cfg=at_1000_dt0("darcy-limit", flow_backend="brinkman",
                         flow_enabled=True, sources_enabled=True))
@example(cfg=at_1000_dt0("zero-source", flow_enabled=False,
                         sources_enabled=False))
def test_a_run_finishes_or_aborts_with_a_message_and_keeps_its_laws(cfg):
    stepper = TimeStepper(cfg)
    start = build_initial_state(cfg, stepper.bundle)
    summary = stepper.run(state=start)  # any raw exception fails the example
    assert summary.message if summary.aborted else not summary.message
    if cfg.flow_enabled or cfg.sources_enabled:
        return
    drift = np.abs(component_masses(summary.state)[0]
                   - component_masses(start)[0]).max()
    assert drift <= 1e-9 * start.grid.area, f"phase-mass drift {drift:.3e}"
    if cfg.model.K == 0.0:
        for rep in summary.reports:
            e0, e1 = rep.energy.e_before, rep.energy.e_total
            assert e1 <= e0 + 64 * EPS * (1.0 + abs(e0)), \
                f"energy rose by {e1 - e0:.3e} at t = {rep.energy.t:.3g}"
